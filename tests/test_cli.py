"""End-to-end command-line pipeline: file-based stages and exit codes."""

import json
import random

import pytest

from pauliflow import circuits, cli, codes, layers
from pauliflow.circuits import render_circuit
from pauliflow.pauli import PauliString
from pauliflow.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    ConfigError,
    load_config,
    main,
)
from test_canonical import random_circuit

CIRCUIT = """\
# small Clifford+T example
qubits 2
h 0
cnot 0 1
t 1
tdg 0
s 1
"""


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "example.qc"
    path.write_text(CIRCUIT)
    return path


class TestTranspile:
    def test_writes_json_with_metrics(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "canonical.json"
        assert main(["transpile", str(circuit_file), "-o", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["schema_version"] == 1
        assert obj["metrics"]["t_count"] == 2
        assert len(obj["pi8"]) == 2

    def test_stdout_mode(self, circuit_file, capsys):
        assert main(["transpile", str(circuit_file), "-o", "-"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["n"] == 2

    def test_parse_error_is_usage(self, tmp_path, capsys):
        bad = tmp_path / "bad.qc"
        bad.write_text("qubits 1\nfrobnicate 0\n")
        assert main(["transpile", str(bad)]) == EXIT_USAGE

    def test_non_decimal_qubit_count_is_usage(self, tmp_path, capsys):
        # "²" is a digit to str.isdigit but not a number int() can read
        bad = tmp_path / "bad.qc"
        bad.write_text("qubits \u00b2\nt 0\n")
        assert main(["transpile", str(bad)]) == EXIT_USAGE
        assert "line 1: malformed qubit count" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["h 1_0", "t +3", "t \u0663"])
    def test_non_integer_qubit_index_is_usage(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.qc"
        bad.write_text(f"qubits 11\n{line}\n")
        assert main(["transpile", str(bad)]) == EXIT_USAGE
        assert "line 2: non-integer qubit index" in capsys.readouterr().err


class TestVerify:
    def test_matching_pair(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(out)])
        assert main(["verify", str(circuit_file), str(out)]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_mismatched_pair_fails(self, circuit_file, tmp_path, capsys):
        other = tmp_path / "other.qc"
        other.write_text("qubits 2\nt 0\n")
        out = tmp_path / "canonical.json"
        main(["transpile", str(other), "-o", str(out)])
        assert main(["verify", str(circuit_file), str(out)]) == EXIT_VERIFY_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_golden_fidelity_lines(self, circuit_file, tmp_path, capsys):
        # both lines as the matrix-product oracle printed them
        out = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(out)])
        capsys.readouterr()
        assert main(["verify", str(circuit_file), str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "fidelity=1.000000000000 PASS\n"
        other = tmp_path / "other.qc"
        other.write_text("qubits 2\nt 0\n")
        main(["transpile", str(other), "-o", str(out)])
        capsys.readouterr()
        assert main(["verify", str(circuit_file), str(out)]) == EXIT_VERIFY_FAILED
        assert capsys.readouterr().out == "fidelity=0.135299025037 FAIL\n"

    @pytest.mark.parametrize("method", ["asap", "ga", "greedy"])
    def test_accepts_layered_output(self, circuit_file, tmp_path, capsys, method):
        canonical = tmp_path / "canonical.json"
        layered = tmp_path / "layered.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        main(["optimize", str(canonical), "--method", method, "-o", str(layered)])
        capsys.readouterr()
        assert main(["verify", str(circuit_file), str(layered)]) == EXIT_OK
        assert capsys.readouterr().out == "fidelity=1.000000000000 PASS\n"
        # the layers are what is checked: a negated rotation in them fails
        obj = json.loads(layered.read_text())
        obj["layers"][0][0]["num"] *= -1
        layered.write_text(json.dumps(obj))
        assert main(["verify", str(circuit_file), str(layered)]) == EXIT_VERIFY_FAILED

    @pytest.mark.parametrize(
        "payload, key",
        [({"n": 2}, "'pi8'"),
         ({"n": 2, "layers": [], "clifford_trace": []}, "'measurement_bases'"),
         ({"pi8": [{"axis": "+ZI", "num": 1}], "clifford_trace": [], "n": 2,
           "measurement_bases": ["+ZI", "+IZ"]}, "'den'")],
    )
    def test_missing_key_named(self, circuit_file, tmp_path, capsys, payload, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", str(circuit_file), str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"missing key {key}" in err
        assert "transpile or optimize" in err

    @pytest.mark.parametrize("layer, entry", [(0, 1), (1, 0)])
    def test_layered_axis_of_another_length_names_layer(self, tmp_path, capsys,
                                                        layer, entry):
        # three pi/8 rotations in two layers, (0, 2) and (1,); the entry is
        # counted within its layer, not across the flattened list
        circuit = tmp_path / "two_layers.qc"
        circuit.write_text("qubits 2\nt 0\nh 0\nt 0\nt 1\n")
        canonical, layered = tmp_path / "canonical.json", tmp_path / "layered.json"
        main(["transpile", str(circuit), "-o", str(canonical)])
        main(["optimize", str(canonical), "-o", str(layered)])
        obj = json.loads(layered.read_text())
        assert [len(rots) for rots in obj["layers"]] == [2, 1]
        obj["layers"][layer][entry]["axis"] += "Z"
        layered.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", str(circuit), str(layered)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"field 'layers' layer {layer} entry {entry}: qubit count "
                "mismatch: 3 vs 2") in err
        assert "pi8" not in err

    def test_non_object_payload(self, circuit_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert main(["verify", str(circuit_file), str(bad)]) == EXIT_USAGE
        assert "transpile or optimize" in capsys.readouterr().err


class TestOptimize:
    def test_ga_pipeline(self, circuit_file, tmp_path, capsys):
        canonical = tmp_path / "canonical.json"
        layered = tmp_path / "layered.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        code = main([
            "optimize", str(canonical), "-o", str(layered),
            "--method", "ga", "--seed", "3",
            "--population-size", "8", "--elite-k", "1",
            "--max-generations", "10", "--stagnation-limit", "3",
        ])
        assert code == EXIT_OK
        obj = json.loads(layered.read_text())
        assert obj["report"]["seed"] == 3
        assert obj["report"]["final_t_depth"] <= obj["report"]["initial_t_depth"]
        assert sum(len(layer) for layer in obj["layers"]) == 2

    def test_greedy_method(self, circuit_file, tmp_path):
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        assert main(["optimize", str(canonical), "--method", "greedy"]) == EXIT_OK

    def test_clifford_only_circuit(self, tmp_path):
        src = tmp_path / "cliff.qc"
        src.write_text("qubits 2\nh 0\ncnot 0 1\ns 1\n")
        canonical = tmp_path / "canonical.json"
        layered = tmp_path / "layered.json"
        main(["transpile", str(src), "-o", str(canonical)])
        assert main(["optimize", str(canonical), "-o", str(layered)]) == EXIT_OK
        obj = json.loads(layered.read_text())
        assert obj["layers"] == []
        assert obj["report"]["final_t_depth"] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_asap_is_default_and_minimal(self, tmp_path, seed):
        gc = random_circuit(6, 120, random.Random(seed))
        src = tmp_path / "c.qc"
        src.write_text(render_circuit(gc))
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(src), "-o", str(canonical)])
        metrics = json.loads(canonical.read_text())["metrics"]
        naive = metrics["naive_t_depth"]
        reports = {}
        for method in (None, "ga", "greedy"):
            out = tmp_path / f"{method}.json"
            argv = ["optimize", str(canonical), "-o", str(out)]
            assert main(argv + (["--method", method] if method else [])) == EXIT_OK
            obj = json.loads(out.read_text())
            assert obj["method"] == (method or "asap")
            reports[obj["method"]] = obj["report"]
        asap = reports["asap"]
        assert asap["rounds"] == 0 and asap["merges_per_round"] == []
        assert asap["initial_t_depth"] == metrics["t_count"]
        assert asap["final_t_depth"] == naive
        for report in reports.values():
            assert report["asap_t_depth"] == naive <= report["final_t_depth"]

    @pytest.mark.parametrize(
        "method, flag, value",
        [("asap", "--seed", "3"), ("asap", "--population-size", "8"),
         ("asap", "--beta", "0.2"), ("greedy", "--max-generations", "5"),
         ("greedy", "--stagnation-limit", "2")],
    )
    def test_unused_flag_rejected(self, circuit_file, tmp_path, capsys,
                                  method, flag, value):
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        argv = ["optimize", str(canonical), flag, value]
        if method != "asap":
            argv += ["--method", method]
        assert main(argv) == EXIT_USAGE
        assert f"error: {flag} is not used by --method {method}" in capsys.readouterr().err

    def test_greedy_takes_beta(self, circuit_file, tmp_path):
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        assert main([
            "optimize", str(canonical), "--method", "greedy", "--beta", "0.2",
        ]) == EXIT_OK

    def test_invalid_layering_is_usage_error(self, tmp_path, capsys, monkeypatch):
        canonical = tmp_path / "canonical.json"
        layered = tmp_path / "layered.json"
        src = tmp_path / "anti.qc"
        src.write_text("qubits 1\nt 0\nh 0\nt 0\n")
        main(["transpile", str(src), "-o", str(canonical)])
        real = layers.build_layers

        def reversed_layers(rotations):
            l = real(rotations)
            return layers.Layering(l.n, l.rotations, l.layers[::-1])

        monkeypatch.setattr(layers, "build_layers", reversed_layers)
        assert main(["optimize", str(canonical), "-o", str(layered)]) == EXIT_USAGE
        assert "anticommutes with earlier rotation" in capsys.readouterr().err
        assert not layered.exists()


class TestMalformedRotation:
    @pytest.mark.parametrize(
        "field, value, message",
        [("num", 1.5, "'num' must be of type int"),
         ("num", "1", "'num' must be of type int"),
         ("num", True, "'num' must be of type int"),
         ("den", 8.0, "'den' must be of type int"),
         ("axis", 5, "'axis' must be of type str")],
    )
    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_wrong_field_type_is_usage(self, circuit_file, tmp_path, capsys,
                                       field, value, message, command):
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        obj = json.loads(canonical.read_text())
        obj["pi8"][0][field] = value
        canonical.write_text(json.dumps(obj))
        layered = tmp_path / "layered.json"
        argv = (["optimize", str(canonical), "-o", str(layered)]
                if command == "optimize"
                else ["verify", str(circuit_file), str(canonical)])
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert f"rotation field {message}" in capsys.readouterr().err
        assert not layered.exists()

    def test_axis_of_another_length_is_usage(self, circuit_file, tmp_path, capsys):
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        obj = json.loads(canonical.read_text())
        obj["pi8"][1]["axis"] = "+ZZZ"
        canonical.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["optimize", str(canonical)]) == EXIT_USAGE
        assert "qubit count mismatch: 3 vs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["n", "pi8", "clifford_trace"])
    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_disagreement_with_n_is_usage(self, circuit_file, tmp_path, capsys,
                                          field, command):
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        obj = json.loads(canonical.read_text())
        if field == "n":
            obj["n"] = "2"
            message = "field 'n' must be an integer >= 1, got '2'"
        else:  # every axis of the field gets a third letter
            for rot in obj[field]:
                rot["axis"] += "Z"
            message = f"field '{field}' entry 0: qubit count mismatch: 3 vs 2"
        canonical.write_text(json.dumps(obj))
        layered = tmp_path / "layered.json"
        argv = (["optimize", str(canonical), "-o", str(layered)]
                if command == "optimize"
                else ["verify", str(circuit_file), str(canonical)])
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not layered.exists()

    def test_non_object_entry_is_usage(self, circuit_file, tmp_path, capsys):
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        obj = json.loads(canonical.read_text())
        obj["clifford_trace"][0] = "+ZI"
        canonical.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["optimize", str(canonical)]) == EXIT_USAGE
        assert "rotation must be a JSON object" in capsys.readouterr().err


class TestSchedule:
    def test_summary_counts_rounds_per_protocol(self, capsys):
        assert main(["schedule", "--algo", "dp", "-M", "9"]) == EXIT_OK
        summary = capsys.readouterr().out
        assert summary.startswith("dp: rounds=3 (15-to-1 x1, 20-to-4 x2) ")
        # a long schedule still prints one short line
        assert main(["schedule", "--algo", "dp", "-M", "10000", "-L", "10000"]) == EXIT_OK
        summary = capsys.readouterr().out
        assert "rounds=2500 (20-to-4 x2500) " in summary
        assert len(summary) < 200

    def test_dp_default_catalog(self, capsys):
        assert main(["schedule", "--algo", "dp", "-M", "4", "-o", "-"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["rounds"] == ["20-to-4"]
        assert obj["metrics"]["tile_time"] == 238

    def test_dp_large_round_bound(self, capsys):
        # the unbounded optimum fits the bound, so no (L+1)(M+1)|P| table
        # is built and its tractability guard does not apply
        code = main([
            "schedule", "--algo", "dp", "-M", "10000", "-L", "10000", "-o", "-",
        ])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["metrics"]["states_delivered"] >= 10000

    def test_brute_latency(self, capsys):
        code = main([
            "schedule", "--algo", "brute", "-M", "4",
            "--objective", "latency", "-o", "-",
        ])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rounds"] == ["20-to-4"]

    def test_infeasible_exit_code(self, tmp_path, capsys):
        catalog = tmp_path / "cat.cat"
        catalog.write_text("one-shot 1 1 1 1 1 1\n")
        code = main([
            "schedule", "--algo", "brute", "-M", "9", "-L", "2",
            "--catalog", str(catalog),
        ])
        assert code == EXIT_INFEASIBLE

    def test_env_catalog(self, tmp_path, capsys, monkeypatch):
        catalog = tmp_path / "cat.cat"
        catalog.write_text("tiny 2 3 1 4 1 1\n")
        monkeypatch.setenv("PAULIFLOW_CATALOG", str(catalog))
        assert main(["schedule", "--algo", "greedy", "-M", "2", "-o", "-"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rounds"] == ["tiny", "tiny"]


class TestEstimate:
    def test_report(self, capsys):
        code = main([
            "estimate", "--distance", "27", "--variant", "standard",
            "--p", "1e-4", "--t-count", "1000000", "--t-depth", "1000000",
            "--target", "1e-10", "-o", "-",
        ])
        assert code == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["physical_qubits"] == 1457
        assert obj["recommended_protocol"]["name"] == "15-to-1"

    def test_streaming_ratio_zero_flag_matches_config(self, tmp_path, capsys):
        argv = ["estimate", "--distance", "3", "--p", "1e-4", "--t-count", "10",
                "--t-depth", "10", "-o", "-"]
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("streaming_ratio = 0\n")

        def protocol(*extra):
            assert main(argv + list(extra)) == EXIT_OK
            return json.loads(capsys.readouterr().out)["recommended_protocol"]

        assert protocol("--streaming-ratio", "0") == protocol("--config", str(cfg))
        assert protocol("--streaming-ratio", "0")["name"] == "20-to-4"
        assert protocol("--streaming-ratio", "0.5")["name"] == "20-to-4"
        assert protocol()["name"] == "15-to-1"
        # the flag wins over the config key, 0 included
        assert protocol("--config", str(cfg), "--streaming-ratio", "100") == protocol()


# `decode -o` output for surface5, depolarizing 0.01, 2^17 shots, seed 7,
# as written before sampling went sparse; the bytes must not move
DECODE_GOLDEN_JSON = """\
{
  "schema_version": 1,
  "shots": 131072,
  "seed": 7,
  "counts": {
    "success": 130812,
    "logical_error": 4,
    "detected_uncorrectable": 256
  },
  "p_logical_estimate": 0.001983642578125,
  "wilson_95_interval": [
    0.0017569236764762792,
    0.0022395523559531312
  ],
  "code": "surface5",
  "noise": "depolarizing",
  "p": 0.01,
  "max_weight": 2
}
"""


class TestDecode:
    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_golden_json(self, tmp_path, workers):
        out = tmp_path / "surface5.decode.json"
        code = main([
            "decode", "--code", "surface5", "--noise", "depolarizing",
            "--p", "0.01", "--shots", str(1 << 17), "--seed", "7",
            "--workers", workers, "-o", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_bytes() == DECODE_GOLDEN_JSON.encode()

    def test_rep3_json(self, capsys):
        code = main([
            "decode", "--code", "rep3", "--noise", "bitflip", "--p", "0.05",
            "--shots", "20000", "--seed", "9", "-o", "-",
        ])
        assert code == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["shots"] == 20000
        assert sum(obj["counts"].values()) == 20000

    def test_surface3(self, capsys):
        code = main([
            "decode", "--code", "surface3", "--noise", "depolarizing",
            "--p", "0.01", "--shots", "5000",
        ])
        assert code == EXIT_OK

    def test_dump_code(self, capsys):
        assert main(["decode", "--code", "rep3", "--dump-code", "-"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["generators"] == ["+ZZI", "+IZZ"]

    def test_missing_noise_is_usage(self, capsys):
        assert main(["decode", "--code", "rep3"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--workers", "0", "workers must be >= 1"),
            ("--workers", "-3", "workers must be >= 1"),
            ("--shots", "0", "shots must be >= 1"),
        ],
    )
    def test_count_below_one_is_usage(self, capsys, flag, value, message):
        code = main([
            "decode", "--code", "rep3", "--noise", "bitflip", "--p", "0.05",
            "--shots", "1000", flag, value,
        ])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_invalid_code_is_usage(self, capsys, monkeypatch):
        rep3 = codes.repetition_code(3)
        bad = codes.StabilizerCode(
            n=3, k=1, generators=rep3.generators, logical_x=rep3.logical_x,
            logical_z=(PauliString.from_label("IXI"),), distance=3,
        )
        monkeypatch.setitem(cli._CODES, "rep3", (lambda: bad, 1))
        code = main([
            "decode", "--code", "rep3", "--noise", "bitflip", "--p", "0.05",
            "--shots", "1000",
        ])
        assert code == EXIT_USAGE
        assert (
            "invalid code: logical Z[0] anticommutes with generator 0"
            in capsys.readouterr().err
        )

    def test_more_than_32_qubits_is_usage(self, capsys, monkeypatch):
        # lift the lookup guard (m = 32 here) so the campaign's own
        # qubit limit is what refuses the code
        monkeypatch.setattr(codes, "LOOKUP_GUARD_M", 32)
        monkeypatch.setitem(
            cli._CODES, "rep3", (lambda: codes.repetition_code(33), 0)
        )
        code = main([
            "decode", "--code", "rep3", "--noise", "bitflip", "--p", "0.05",
            "--shots", "1000",
        ])
        assert code == EXIT_USAGE
        assert "n <= 32 qubits" in capsys.readouterr().err


class TestConfig:
    def test_empty_file_is_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(path) == {}

    def test_seed_key(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("seed = 42\n")
        assert load_config(path) == {"seed": 42}

    def test_negative_elite_rejected(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("elite_k = -1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\nwat = 2\n")
        with pytest.raises(ConfigError, match=":2"):
            load_config(path)

    def test_config_feeds_ga(self, circuit_file, tmp_path):
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        cfg = tmp_path / "ga.cfg"
        cfg.write_text(
            "seed = 5\npopulation_size = 8\nelite_k = 1\n"
            "max_generations = 5\nstagnation_limit = 2\n"
        )
        layered = tmp_path / "layered.json"
        assert main([
            "optimize", str(canonical), "--config", str(cfg), "-o", str(layered),
            "--method", "ga",
        ]) == EXIT_OK
        assert json.loads(layered.read_text())["report"]["seed"] == 5

    def test_bad_config_is_usage_error(self, circuit_file, tmp_path):
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main([
            "optimize", str(canonical), "--config", str(cfg),
        ]) == EXIT_USAGE


class TestDeterminism:
    def test_identical_outputs_for_same_seed(self, circuit_file, tmp_path):
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main([
                "optimize", str(canonical), "-o", str(path), "--method", "ga",
                "--seed", "7", "--population-size", "8", "--elite-k", "1",
                "--max-generations", "10", "--stagnation-limit", "3",
            ])
            outs.append(path.read_text())
        assert outs[0] == outs[1]


class TestSchemaVersion:
    @pytest.mark.parametrize(
        "stage",
        ["transpile", "optimize", "schedule", "estimate", "decode", "dump-code"],
    )
    def test_every_payload_carries_it(self, circuit_file, tmp_path, capsys, stage):
        canonical, out = tmp_path / "canonical.json", tmp_path / "out.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        argv = {
            "transpile": ["transpile", str(circuit_file), "-o", str(out)],
            "optimize": ["optimize", str(canonical), "-o", str(out)],
            "schedule": ["schedule", "--algo", "dp", "-M", "4", "-o", str(out)],
            "estimate": ["estimate", "--distance", "3", "--p", "1e-4",
                         "-o", str(out)],
            "decode": ["decode", "--code", "rep3", "--noise", "bitflip",
                       "--p", "0.05", "--shots", "1000", "-o", str(out)],
            "dump-code": ["decode", "--code", "rep3", "--dump-code", str(out)],
        }[stage]
        assert main(argv) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == circuits.SCHEMA_VERSION == 1
