"""End-to-end command-line pipeline: file-based stages and exit codes."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pauliflow import canonical, circuits, cli, codes, layers, scheduling
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


@pytest.fixture
def negated_form(circuit_file, tmp_path):
    """The circuit's own transpile payload with its first pi/8 negated:
    fidelity 0.707106781187, its Clifford part intact."""
    path = tmp_path / "negated.json"
    main(["transpile", str(circuit_file), "-o", str(path)])
    obj = json.loads(path.read_text())
    obj["pi8"][0]["num"] *= -1
    path.write_text(json.dumps(obj))
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


    def test_width_over_the_guard_exits_3(self, tmp_path, capsys):
        # refused before the 2n tableau rows of n bits are built: unguarded,
        # qubits 10000 took 1.4 s and 511 MB and wrote a 100 MB file
        src, out = tmp_path / "wide.qc", tmp_path / "wide.json"
        src.write_text("qubits 100000\nh 0\nt 99999\n")
        start = time.perf_counter()
        assert main(["transpile", str(src), "-o", str(out)]) == EXIT_INFEASIBLE
        assert time.perf_counter() - start < 0.1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: n = 100000 qubits: the tableau has n^2 = 10000000000 entries, "
            f"over the guard of {scheduling.ENUMERATION_GUARD}\n")
        assert not out.exists()


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

    def test_tol_flag_beats_tolerance_key(self, circuit_file, negated_form, tmp_path,
                                          capsys):
        # fidelity 0.707 passes only under a loose tolerance
        cfg = tmp_path / "loose.cfg"
        cfg.write_text("tolerance = 0.9\n")
        argv = ["verify", str(circuit_file), str(negated_form), "--config", str(cfg)]
        assert main(argv) == EXIT_OK
        assert main(argv + ["--tol", "1e-9"]) == EXIT_VERIFY_FAILED
        assert main(argv[:3] + ["--tol", "0.9"]) == EXIT_OK

    def test_golden_fidelity_lines(self, circuit_file, tmp_path, capsys):
        # the first line as the matrix-product oracle printed it; the second
        # since V is built from the circuit's Clifford gates, not the trace
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
        assert capsys.readouterr().out == "fidelity=0.788580507475 FAIL\n"

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

    def test_at_the_oracle_limit(self, tmp_path, capsys):
        # n = 10 is the largest circuit the dense oracle takes; both lines
        # as the oracle printed them when it made one dense pass per gate
        src, canonical_json = tmp_path / "limit.qc", tmp_path / "limit.json"
        src.write_text(render_circuit(random_circuit(10, 60, random.Random(1))))
        main(["transpile", str(src), "-o", str(canonical_json)])
        capsys.readouterr()
        assert main(["verify", str(src), str(canonical_json)]) == EXIT_OK
        assert capsys.readouterr().out == "fidelity=1.000000000000 PASS\n"
        obj = json.loads(canonical_json.read_text())
        obj["pi8"][0]["num"] *= -1
        canonical_json.write_text(json.dumps(obj))
        assert main(["verify", str(src), str(canonical_json)]) == EXIT_VERIFY_FAILED
        assert capsys.readouterr().out == "fidelity=0.707106781187 FAIL\n"

    @pytest.mark.parametrize("edit", ["negated", "dropped"])
    def test_altered_trace_fails_the_tableau_check(self, circuit_file, tmp_path, capsys,
                                                   edit):
        # the file's first trace rotation (a pi/4) negated or dropped, and its
        # bases rewritten to the altered trace's Z images, so the reader
        # accepts it; V comes from the circuit's gates, so the fidelity is
        # still 1 and only the tableau check can object (with V from the
        # trace, the fidelity read 0 and 0.707106781187)
        path = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(path)])
        obj = json.loads(path.read_text())
        trace = obj["clifford_trace"]
        if edit == "negated":
            trace[0]["num"] *= -1
        else:
            del trace[0]
        rotations = canonical.rotations_from_json(trace, obj["n"], "trace")
        obj["measurement_bases"] = [
            str(p) for p in canonical.tableau_from_trace(obj["n"], rotations).z_images]
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", str(circuit_file), str(path)]) == EXIT_VERIFY_FAILED
        assert capsys.readouterr().out == "fidelity=1.000000000000 FAIL\n"

    @pytest.mark.parametrize("tol", ["0", "1", "2", "inf", "nan", "-1e-9"])
    def test_tol_outside_unit_interval_is_usage(self, circuit_file, tmp_path,
                                                capsys, tol):
        # an overlap lies in [0, 1]: tol >= 1 passed every pair, NaN would
        # under the pass rule, and tol <= 0 fails on rounding alone
        out = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(out)])
        capsys.readouterr()
        argv = ["verify", str(circuit_file), str(out)]
        assert main(argv + [f"--tol={tol}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: tolerance must be in (0, 1), got {float(tol)!r}\n"
        )

    def test_tolerance_key_of_one_is_usage(self, circuit_file, negated_form, tmp_path,
                                          capsys):
        # the pair reads fidelity 0.707; a tol of 1 passed it
        cfg = tmp_path / "one.cfg"
        cfg.write_text("tolerance = 1\n")
        capsys.readouterr()
        argv = ["verify", str(circuit_file), str(negated_form)]
        assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE
        assert "tolerance must be in (0, 1), got 1.0" in capsys.readouterr().err
        assert main(argv + ["--tol", "1"]) == EXIT_USAGE
        assert main(argv + ["--tol", "0.99"]) == EXIT_OK

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

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda layers: [layers[0] + layers[1]],
          "field 'layers': rotations 0 and 1 share a layer but anticommute (layer 0)"),
         (lambda layers: [layers[0], [], layers[1]], "field 'layers': layer 1 is empty")],
        ids=["squashed", "empty"],
    )
    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_layered_input_checked_as_a_layering(self, tmp_path, capsys, command,
                                                 edit, message):
        # t h t: layers [+Z] [+X]; squashed into one they claim depth 1
        circuit = tmp_path / "anti.qc"
        circuit.write_text("qubits 1\nt 0\nh 0\nt 0\n")
        canonical, layered = tmp_path / "canonical.json", tmp_path / "layered.json"
        main(["transpile", str(circuit), "-o", str(canonical)])
        main(["optimize", str(canonical), "-o", str(layered)])
        obj = json.loads(layered.read_text())
        assert [[r["axis"] for r in layer] for layer in obj["layers"]] == [["+Z"], ["+X"]]
        obj["layers"] = edit(obj["layers"])
        layered.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        argv = (["optimize", str(layered), "-o", str(out)] if command == "optimize"
                else ["verify", str(circuit), str(layered)])
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_payload(self, circuit_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert main(["verify", str(circuit_file), str(bad)]) == EXIT_USAGE
        assert "transpile or optimize" in capsys.readouterr().err


class TestLoadCanonical:
    """optimize and verify read their JSON input through one loader."""

    @pytest.mark.parametrize(
        "text, message",
        [("[1, 2]", "not a JSON object"), ('"x"', "not a JSON object"),
         ("{}", "missing key 'n'"),
         ("not json", "not JSON (Expecting value: line 1 column 1 (char 0))")],
        ids=["list", "string", "empty", "not-json"],
    )
    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_not_a_payload_is_usage(self, circuit_file, tmp_path, capsys,
                                    command, text, message):
        bad, out = tmp_path / "bad.json", tmp_path / "out.json"
        bad.write_text(text)
        argv = (["optimize", str(bad), "-o", str(out)] if command == "optimize"
                else ["verify", str(circuit_file), str(bad)])
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {bad}: {message}; {command} expects the JSON written " \
               "by transpile or optimize" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_deeply_nested_json_is_usage(self, circuit_file, tmp_path, command):
        # json.loads raises RecursionError, not JSONDecodeError, past its
        # nesting limit; a subprocess shows what a user would see
        deep, out = tmp_path / "deep.json", tmp_path / "out.json"
        deep.write_text("[" * 200_000)
        argv = (["optimize", str(deep), "-o", str(out)] if command == "optimize"
                else ["verify", str(circuit_file), str(deep)])
        env = {**os.environ,
               "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-m", "pauliflow.cli", *argv],
                             capture_output=True, text=True, env=env)
        assert run.returncode == EXIT_USAGE
        assert run.stderr == (f"error: {deep}: JSON nested too deeply to read; "
                              f"{command} expects the JSON written by transpile "
                              "or optimize\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["clifford_trace", "layers"])
    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_bool_twin_of_a_valid_entry_is_usage(self, circuit_file, tmp_path,
                                                 capsys, command, field):
        # True == 1 and hash(True) == hash(1): the second entry must be
        # type-checked, not found among the rotations already built
        canonical, layered = tmp_path / "canonical.json", tmp_path / "layered.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        main(["optimize", str(canonical), "-o", str(layered)])
        path = canonical if field == "clifford_trace" else layered
        obj = json.loads(path.read_text())
        entries = obj[field] if field == "clifford_trace" else obj[field][0]
        entries[:] = [{**entries[0], "num": 1}, {**entries[0], "num": True}]
        path.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        argv = (["optimize", str(path), "-o", str(out)] if command == "optimize"
                else ["verify", str(circuit_file), str(path)])
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert "rotation field 'num' must be of type int, got True" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["asap", "greedy", "ga"])
    def test_optimize_keeps_trace_and_bases(self, tmp_path, method):
        # both payloads come from one writer: the Clifford part is the same
        src = tmp_path / "c.qc"
        src.write_text(render_circuit(random_circuit(5, 80, random.Random(11))))
        canonical, layered = tmp_path / "canonical.json", tmp_path / "layered.json"
        assert main(["transpile", str(src), "-o", str(canonical)]) == EXIT_OK
        assert main(["optimize", str(canonical), "--method", method,
                     "-o", str(layered)]) == EXIT_OK
        before, after = (json.loads(p.read_text()) for p in (canonical, layered))
        assert before["clifford_trace"] and before["pi8"]
        for key in ("schema_version", "n", "clifford_trace", "measurement_bases"):
            assert after[key] == before[key]
        assert list(after) == ["schema_version", "n", "layers", "clifford_trace",
                               "measurement_bases", "report", "method"]

    def test_hand_edited_trace_entry_written_back_normalized(self, tmp_path):
        # -ZI at +pi/4 is +ZI at -pi/4, sdg 0's rotation (and cnot 0 1's
        # last): the bases stay consistent, and optimize writes the entry
        # back as PauliRotation normalizes it, the bytes it writes for the
        # unedited file; the digest is that of the output before the
        # trace left CanonicalForm
        src = tmp_path / "c.qc"
        src.write_text("qubits 2\nsdg 0\nt 1\ncnot 0 1\nt 1\nh 0\n")
        canonical, edited = tmp_path / "canonical.json", tmp_path / "edited.json"
        assert main(["transpile", str(src), "-o", str(canonical)]) == EXIT_OK
        obj = json.loads(canonical.read_text())
        normalized = {"axis": "+ZI", "num": -1, "den": 4}
        assert obj["clifford_trace"][0] == obj["clifford_trace"][3] == normalized
        obj["clifford_trace"][0] = {"axis": "-ZI", "num": 1, "den": 4}
        edited.write_text(json.dumps(obj))
        outputs = []
        for path in (edited, canonical):
            outputs.append(tmp_path / f"{path.stem}.layered.json")
            assert main(["optimize", str(path), "-o", str(outputs[-1])]) == EXIT_OK
        written = outputs[0].read_bytes()
        assert json.loads(written)["clifford_trace"][0] == normalized
        assert written == outputs[1].read_bytes()
        assert hashlib.sha256(written).hexdigest() == (
            "6d9724a668f5d062a885009dacf318ca82e03808ebef89b70d098de5f7ecc2ae")

    @pytest.mark.parametrize("version", [None, 2, "1", True],
                             ids=["missing", "2", "str", "bool"])
    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_schema_version_must_be_current(self, circuit_file, tmp_path, capsys,
                                            command, version):
        canonical, out = tmp_path / "canonical.json", tmp_path / "out.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        obj = json.loads(canonical.read_text())
        if version is None:
            del obj["schema_version"]
        else:
            obj["schema_version"] = version
        canonical.write_text(json.dumps(obj))
        argv = (["optimize", str(canonical), "-o", str(out)] if command == "optimize"
                else ["verify", str(circuit_file), str(canonical)])
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'schema_version'" in err
        if version is not None:
            assert f"must be the integer 1, got {version!r}" in err
        assert not out.exists()

    def test_optimize_reads_its_own_output(self, circuit_file, tmp_path):
        # layered input is flattened in layer order, a linear extension of
        # the anticommutation order, so ASAP finds the same layers again
        canonical = tmp_path / "canonical.json"
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        assert main(["optimize", str(canonical), "-o", str(once)]) == EXIT_OK
        assert main(["optimize", str(once), "-o", str(twice)]) == EXIT_OK
        assert twice.read_bytes() == once.read_bytes()

    @pytest.mark.parametrize(
        "command, extra",
        [("verify", {"layers": [[{"axis": "+XX", "num": 1, "den": 8}]]}),
         ("optimize", {"pi8": []})],
        ids=["verify-transpile-payload", "optimize-optimize-payload"],
    )
    def test_pi8_and_layers_together_are_refused(self, circuit_file, tmp_path, capsys,
                                                 command, extra):
        # read by its pi8 alone, a transpile payload with made-up layers
        # passed verify, and an optimize payload with an empty pi8 gave
        # optimize final_t_depth 0 for a circuit with two T gates
        canonical, layered = tmp_path / "canonical.json", tmp_path / "layered.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        main(["optimize", str(canonical), "-o", str(layered)])
        path = canonical if command == "verify" else layered
        path.write_text(json.dumps({**json.loads(path.read_text()), **extra}))
        out = tmp_path / "out.json"
        argv = (["verify", str(circuit_file), str(path)] if command == "verify"
                else ["optimize", str(path), "-o", str(out)])
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert "error: fields 'pi8' and 'layers' are both present" in \
            capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("method", ["asap", "greedy", "ga"])
    def test_clifford_only_takes_the_one_path(self, tmp_path, method):
        # the empty layering goes through the chosen method: its report
        # has every key the method's report has, the ga seed included
        src, canonical = tmp_path / "cliff.qc", tmp_path / "canonical.json"
        out = tmp_path / "out.json"
        src.write_text("qubits 2\nh 0\ns 1\n")
        main(["transpile", str(src), "-o", str(canonical)])
        seed = {"seed": 5} if method == "ga" else {}
        argv = ["optimize", str(canonical), "--method", method, "-o", str(out)]
        assert main(argv + (["--seed", "5"] if seed else [])) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["layers"] == []
        assert obj["report"] == {"initial_t_depth": 0, "final_t_depth": 0, "rounds": 0,
                                 "merges_per_round": [], **seed, "asap_t_depth": 0}
        assert list(obj["report"]) == ["initial_t_depth", "final_t_depth", "rounds",
                                       "merges_per_round", *seed, "asap_t_depth"]

    @pytest.mark.parametrize(
        "method, flag, value, message",
        [("greedy", "--beta", "7", "beta must be in [0, 1)"),
         ("ga", "--beta", "7", "beta must be in [0, 1)"),
         ("ga", "--elite-k", "100",
          "elite_k must satisfy 0 <= elite_k < population_size")],
    )
    def test_clifford_only_bounds_checked(self, tmp_path, capsys, method, flag,
                                          value, message):
        src, canonical = tmp_path / "cliff.qc", tmp_path / "canonical.json"
        src.write_text("qubits 2\nh 0\ns 1\n")
        main(["transpile", str(src), "-o", str(canonical)])
        capsys.readouterr()
        assert main(["optimize", str(canonical), "--method", method,
                     flag, value]) == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "knobs, product",
        [(["--population-size", "99999999999999999999", "--elite-k", "1"],
          "99999999999999999999 * 200 = 19999999999999999999800"),
         (["--max-generations", "99999999999999999999",
           "--stagnation-limit", "99999999999999999999"],
          "64 * 99999999999999999999 = 6399999999999999999936"),
         (["--config", "big.cfg"],
          "99999999999999999999 * 200 = 19999999999999999999800")],
    )
    def test_ga_work_over_the_guard_exits_3(self, tmp_path, capsys, monkeypatch,
                                            knobs, product):
        # the children a GA round can build, refused before the input is read
        monkeypatch.chdir(tmp_path)
        Path("c.qc").write_text("qubits 3\nh 0\nt 0\nt 1\nt 2\ncnot 0 1\nt 1\ntdg 2\n")
        Path("big.cfg").write_text("population_size = 99999999999999999999\n")
        assert main(["transpile", "c.qc", "-o", "canonical.json"]) == EXIT_OK
        capsys.readouterr()
        start = time.perf_counter()
        argv = ["optimize", "canonical.json", "--method", "ga", *knobs, "-o", "out.json"]
        assert main(argv) == EXIT_INFEASIBLE
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr() == ("", (
            f"error: population_size * max_generations = {product} GA children, "
            "over the guard of 10000000\n"))
        assert not Path("out.json").exists()

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

    @pytest.mark.parametrize("method, how", [("greedy", "flag"), ("ga", "flag"),
                                             ("greedy", "config")])
    def test_beta_bound_for_every_method(self, circuit_file, tmp_path, capsys,
                                         method, how):
        canonical, cfg = tmp_path / "canonical.json", tmp_path / "beta.cfg"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        cfg.write_text("beta = 7\n")
        argv = ["optimize", str(canonical), "--method", method]
        argv += ["--beta", "7"] if how == "flag" else ["--config", str(cfg)]
        assert main(argv) == EXIT_USAGE
        assert "beta must be in [0, 1)" in capsys.readouterr().err

    def test_greedy_ignores_ga_only_config_keys(self, circuit_file, tmp_path,
                                                capsys):
        # greedy reads only beta, so a file tuned for the GA still serves;
        # a file that is no valid GAConfig (elite_k < population_size) is
        # rejected when it is loaded, whichever method reads it
        canonical, cfg = tmp_path / "canonical.json", tmp_path / "ga.cfg"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        cfg.write_text("elite_k = 7\npopulation_size = 8\nmutation_rate = 0.5\n")
        argv = ["optimize", str(canonical), "--method", "greedy", "-o", "-"]
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg)]) == EXIT_OK
        with_file = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert with_file == capsys.readouterr().out
        cfg.write_text("elite_k = 70\n")
        for method in ("greedy", "ga"):
            argv[3] = method
            assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE
            assert (f"{cfg}: elite_k must satisfy 0 <= elite_k < population_size"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize(
        "knob", dataclasses.fields(layers.GAConfig), ids=lambda f: f.name
    )
    def test_ga_knob_as_flag_or_config_key(self, tmp_path, capsys, monkeypatch,
                                           knob):
        gc = random_circuit(4, 60, random.Random(2))
        src, canonical = tmp_path / "c.qc", tmp_path / "canonical.json"
        src.write_text(render_circuit(gc))
        main(["transpile", str(src), "-o", str(canonical)])
        value = knob.default + 1 if type(knob.default) is int else knob.default / 2
        flag = "--" + knob.name.replace("_", "-")
        cfg = tmp_path / "knob.cfg"
        cfg.write_text(f"{knob.name} = {value}\n")
        # most knobs leave this small instance's layering as it is, so the
        # GAConfig that reaches ga_optimize is checked too
        configs, real = [], layers.ga_optimize
        monkeypatch.setattr(layers, "ga_optimize",
                            lambda l, c: configs.append(c) or real(l, c))

        def payload(*extra):
            capsys.readouterr()
            argv = ["optimize", str(canonical), "--method", "ga", "-o", "-"]
            assert main(argv + [str(a) for a in extra]) == EXIT_OK
            return capsys.readouterr().out, configs[-1]

        tuned = layers.GAConfig(**{knob.name: value})
        assert payload(flag, value) == payload("--config", cfg)
        assert configs[-1] == tuned
        # the flag beats the config key, the key beats the default
        assert payload("--config", cfg, flag, knob.default) == payload()
        assert configs[-1] == layers.GAConfig()

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

    @pytest.mark.parametrize(
        "command, edit, message",
        [("optimize", lambda obj: obj.update(pi8=5),
          "field 'pi8' must be a list of rotations, got 5"),
         ("optimize", lambda obj: obj.update(clifford_trace=None),
          "field 'clifford_trace' must be a list of rotations, got None"),
         ("verify", lambda obj: obj["layers"].__setitem__(0, 5),
          "field 'layers' layer 0 must be a list of rotations, got 5"),
         ("verify", lambda obj: obj.update(layers=7),
          "field 'layers' must be a list of layers, got 7")],
        ids=["pi8", "clifford_trace", "layer", "layers"],
    )
    def test_non_list_field_is_usage(self, circuit_file, tmp_path, capsys,
                                     command, edit, message):
        canonical, layered = tmp_path / "canonical.json", tmp_path / "layered.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        main(["optimize", str(canonical), "-o", str(layered)])
        path = canonical if command == "optimize" else layered
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        argv = (["optimize", str(canonical), "-o", str(out)]
                if command == "optimize"
                else ["verify", str(circuit_file), str(layered)])
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "algo, message",
        [("dp", "the dp planner only minimizes tiles; use --algo brute for "
                "the latency objective"),
         ("greedy", "the greedy planner takes no objective; use --algo brute "
                    "for the latency objective"),
         ("random", "the random planner takes no objective; use --algo brute "
                    "for the latency objective")],
        ids=["dp", "greedy", "random"],
    )
    def test_objective_flag_is_for_brute(self, tmp_path, capsys, algo, message):
        out = tmp_path / "schedule.json"
        argv = ["schedule", "--algo", algo, "-M", "4", "-o", str(out)]
        assert main(argv + ["--objective", "latency"]) == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--objective", "tiles"]) == EXIT_OK
        assert json.loads(out.read_text())["objective"] == "tiles"

    @pytest.mark.parametrize("algo", ["dp", "greedy", "random"])
    def test_config_objective_is_for_brute(self, tmp_path, capsys, algo):
        # one file serves every planner: dp refused it, greedy and random
        # wrote an objective they did not plan for
        cfg = tmp_path / "latency.cfg"
        cfg.write_text("objective = latency\n")
        argv = ["schedule", "--algo", algo, "-M", "4", "--config", str(cfg), "-o", "-"]
        assert main(argv) == EXIT_OK
        plain = json.loads(capsys.readouterr().out)
        assert plain["objective"] == "tiles"
        assert main(argv[:-4] + ["-o", "-"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == plain
        assert main(["schedule", "--algo", "brute", "-M", "4", "--config", str(cfg),
                     "-o", "-"]) == EXIT_OK
        brute = json.loads(capsys.readouterr().out)
        assert (brute["objective"], brute["rounds"]) == ("latency", ["20-to-4"])

    @pytest.mark.parametrize("argv, message", [
        (["--algo", "greedy", "-L", "1"], "--max-rounds is not used by --algo greedy"),
        (["--algo", "random", "-L", "1"], "--max-rounds is not used by --algo random"),
        (["--algo", "dp", "--weight", "7"], "--weight is not used by --algo dp"),
        (["--algo", "greedy", "--weight", "7"], "--weight is not used by --algo greedy"),
        (["--algo", "random", "--weight", "7"], "--weight is not used by --algo random"),
        (["--algo", "brute", "--weight", "7"],
         "--weight is not used by --algo brute with the tiles objective"),
        (["--algo", "brute", "--objective", "latency", "--weight", "0.2"],
         "--weight is not used by --algo brute with the latency objective"),
        (["--algo", "dp", "--seed", "3"], "--seed is not used by --algo dp"),
        (["--algo", "greedy", "--seed", "3"], "--seed is not used by --algo greedy"),
        (["--algo", "brute", "--seed", "3"], "--seed is not used by --algo brute"),
    ], ids=["L-greedy", "L-random", "weight-dp", "weight-greedy", "weight-random",
            "weight-brute-tiles", "weight-brute-latency", "seed-dp", "seed-greedy",
            "seed-brute"])
    def test_flag_the_planner_ignores(self, tmp_path, capsys, argv, message):
        # each exited 0 and wrote a plan that the flag had no part in
        out = tmp_path / "schedule.json"
        assert main(["schedule", "-M", "4", *argv, "-o", str(out)]) == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, key, value", [
        (["--algo", "dp", "-L", "1"], "rounds", ["20-to-4"]),
        (["--algo", "brute", "-L", "1"], "rounds", ["20-to-4"]),
        (["--algo", "random", "--seed", "3"], "seed", 3),
        (["--algo", "brute", "--objective", "balanced", "--weight", "0"], "rounds",
         ["20-to-4"]),
    ])
    def test_flags_the_planner_reads(self, capsys, argv, key, value):
        assert main(["schedule", "-M", "4", *argv, "-o", "-"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)[key] == value

    def test_config_seed_is_for_random(self, tmp_path, capsys):
        # one file serves every planner: dp, greedy and brute wrote a seed
        # they did not read
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = 3\n")
        for algo, seed in (("random", 3), ("dp", 0), ("greedy", 0), ("brute", 0)):
            argv = ["schedule", "--algo", algo, "-M", "4", "--config", str(cfg), "-o", "-"]
            assert main(argv) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["seed"] == seed, algo

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

    @pytest.mark.parametrize("algo", ["dp", "greedy", "random"])
    def test_demand_over_the_guard_exits_3(self, algo, capsys, monkeypatch):
        # checked before any list of the demand's size is built
        monkeypatch.setattr(scheduling, "ENUMERATION_GUARD", 1000)
        assert main(["schedule", "--algo", algo, "-M", "100000"]) == EXIT_INFEASIBLE
        assert "error: demand 100000: " in capsys.readouterr().err

    def test_one_protocol_brute_over_the_guard_exits_3(self, tmp_path, capsys,
                                                        monkeypatch):
        # 1^L is 1, but the search would evaluate L(L+1)/2 = 5050 rounds
        monkeypatch.setattr(scheduling, "ENUMERATION_GUARD", 1000)
        catalog = tmp_path / "one.cat"
        catalog.write_text("15-to-1 11 11 1 15 35 3\n")
        code = main(["schedule", "--algo", "brute", "-M", "4", "-L", "100",
                     "--catalog", str(catalog)])
        assert code == EXIT_INFEASIBLE
        assert "5050 rounds to evaluate" in capsys.readouterr().err

    def test_dp_table_over_the_guard_exits_3(self, tmp_path, capsys, monkeypatch):
        # the 1-D optimum takes 200 rounds of a, over the bound of 45, so the
        # (45 + 1)(200 + 1)2 = 18 492-cell bounded table would decide
        monkeypatch.setattr(scheduling, "ENUMERATION_GUARD", 10_000)
        catalog = tmp_path / "two.cat"
        catalog.write_text("a 1 1 1 1 1 1\nb 10 10 5 1 1 1\n")
        code = main(["schedule", "--algo", "dp", "-M", "200", "-L", "45",
                     "--catalog", str(catalog)])
        assert code == EXIT_INFEASIBLE
        assert "18492 DP table cells, over the guard of 10000" in capsys.readouterr().err

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

    @pytest.mark.parametrize("ratio", ["nan", "-5"])
    def test_streaming_ratio_nan_or_negative_is_usage(self, tmp_path, capsys,
                                                      ratio):
        argv = ["estimate", "--distance", "3", "--p", "1e-4", "--t-count", "10",
                "--t-depth", "10", "-o", "-"]
        cfg = tmp_path / "ratio.cfg"
        cfg.write_text(f"streaming_ratio = {ratio}\n")
        for extra in ([f"--streaming-ratio={ratio}"], ["--config", str(cfg)]):
            assert main(argv + extra) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"streaming ratio must be >= 0, got {float(ratio)!r}" in err

    @pytest.mark.parametrize("p", ["0.4", "0.5", "0.99"])
    def test_large_p_names_the_model_range(self, capsys, p):
        # 15-to-1 twice would be fed 35 p^3 >= 1 first
        assert main(["estimate", "--distance", "27", "--p", p]) == EXIT_USAGE
        assert (
            "physical error rate must be in (0, 0.01]" in capsys.readouterr().err
        )


# `decode -o` output for surface5, depolarizing 0.01, 2^17 shots, seed 7,
# as written by the sparse sampler; the bytes must not move.  Its 222
# failures lie 1.2 sigma below the exact rate of codes.failure_counts,
# [1.83526e-3, 1.83975e-3]; the uniform sampler's 260 lay 1.2 sigma above
DECODE_GOLDEN_JSON = """\
{
  "schema_version": 1,
  "shots": 131072,
  "seed": 7,
  "counts": {
    "success": 130850,
    "logical_error": 6,
    "detected_uncorrectable": 216
  },
  "p_logical_estimate": 0.0016937255859375,
  "wilson_95_interval": [
    0.0014852432944705619,
    0.0019314157468630759
  ],
  "code": "surface5",
  "noise": "depolarizing",
  "p": 0.01,
  "max_weight": 2
}
"""


class TestDecode:
    @pytest.mark.parametrize("workers", ["1", "3", None])
    def test_golden_json(self, tmp_path, workers):
        out = tmp_path / "surface5.decode.json"
        flags = [] if workers is None else ["--workers", workers]
        code = main([
            "decode", "--code", "surface5", "--noise", "depolarizing",
            "--p", "0.01", "--shots", str(1 << 17), "--seed", "7",
            *flags, "-o", str(out),
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

    @pytest.mark.parametrize(
        "name, weight", [("rep3", 1), ("rep5", 2), ("surface3", 1), ("surface5", 2)]
    )
    def test_default_max_weight_is_correctable_weight(self, capsys, name, weight):
        code = main([
            "decode", "--code", name, "--noise", "depolarizing", "--p", "0.01",
            "--shots", "1000", "-o", "-",
        ])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["max_weight"] == weight

    def test_oversized_lookup_is_usage(self, capsys, monkeypatch):
        def reached(code):
            raise AssertionError("the lookup guard let the enumeration start")

        monkeypatch.setattr(codes, "_letter_words", reached)
        code = main([
            "decode", "--code", "surface5", "--noise", "depolarizing",
            "--p", "0.01", "--max-weight", "5",
        ])
        assert code == EXIT_USAGE
        assert (
            "lookup table of weight <= 5 enumerates 14000116 errors, "
            "over the limit of 4194304" in capsys.readouterr().err
        )

    def test_p_checked_before_the_table(self, capsys, monkeypatch):
        def reached(code, max_weight):
            raise AssertionError("the lookup table was built before --p was checked")

        monkeypatch.setattr(codes, "build_lookup", reached)
        code = main([
            "decode", "--code", "surface5", "--noise", "depolarizing",
            "--p", "2", "--max-weight", "3",
        ])
        assert code == EXIT_USAGE
        assert "error probability must be in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--shots", "0", "shots must be >= 1"),
        ("--seed", "-1", "seed must be non-negative"),
        ("--workers", "0", "workers must be >= 1"),
    ])
    def test_campaign_arguments_checked_before_the_table(self, capsys, monkeypatch,
                                                         flag, value, message):
        def reached(code, max_weight):
            raise AssertionError(f"the lookup table was built before {flag} was checked")

        monkeypatch.setattr(codes, "build_lookup", reached)
        code = main([
            "decode", "--code", "surface5", "--noise", "depolarizing",
            "--p", "0.01", "--max-weight", "3", flag, value,
        ])
        assert code == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err

    def test_dump_code(self, capsys):
        assert main(["decode", "--code", "rep3", "--dump-code", "-"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["generators"] == ["+ZZI", "+IZZ"]

    @pytest.mark.parametrize("flag, value", [
        ("--noise", "bitflip"), ("--p", "7"), ("--shots", "-5"), ("--seed", "3"),
        ("--workers", "0"), ("--max-weight", "-3"), ("-o", "out.json"),
    ])
    def test_dump_code_refuses_campaign_flags(self, tmp_path, capsys, flag, value):
        # each was ignored, an invalid value included, and the code written
        dump, out = tmp_path / "code.json", tmp_path / "out.json"
        value = str(out) if flag == "-o" else value
        argv = ["decode", "--code", "rep3", "--dump-code", str(dump), flag, value]
        assert main(argv) == EXIT_USAGE
        name = "--output" if flag == "-o" else flag
        assert capsys.readouterr() == (
            "", f"error: {name} is not used by --dump-code {dump}\n")
        assert not dump.exists() and not out.exists()

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
        monkeypatch.setitem(cli._CODES, "rep3", lambda: bad)
        code = main([
            "decode", "--code", "rep3", "--noise", "bitflip", "--p", "0.05",
            "--shots", "1000",
        ])
        assert code == EXIT_USAGE
        assert (
            "invalid code: logical Z[0] anticommutes with generator 0"
            in capsys.readouterr().err
        )

    def test_shot_word_over_64_bits_is_usage(self, capsys, monkeypatch):
        # rep65's table keys (m = 64) fit, its 66-bit shot words do not
        monkeypatch.setitem(
            cli._CODES, "rep3", lambda: codes.repetition_code(65)
        )
        code = main([
            "decode", "--code", "rep3", "--noise", "bitflip", "--p", "0.05",
            "--shots", "1000", "--max-weight", "0",
        ])
        assert code == EXIT_USAGE
        assert "monte_carlo needs m + 2k <= 64, got m + 2k = 66" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "text, message",
        [("population_size = 0", "population_size must be >= 1"),
         ("population_size = 2", "elite_k must satisfy 0 <= elite_k < population_size"),
         ("elite_k = 64", "elite_k must satisfy 0 <= elite_k < population_size"),
         ("crossover_rate = 1.5", "crossover_rate must be in [0, 1]"),
         ("mutation_rate = -0.1", "mutation_rate must be in [0, 1]"),
         ("beta = 1", "beta must be in [0, 1)"),
         ("max_generations = 0", "max_generations must be >= 1"),
         ("stagnation_limit = 0", "stagnation_limit must be >= 1")],
    )
    def test_ga_keys_checked_by_gaconfig(self, tmp_path, text, message):
        # each bound is GAConfig's, over its defaults, prefixed with the path
        path = tmp_path / "ga.cfg"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: {message}"

    def test_population_size_alone_fails_at_load(self, circuit_file, tmp_path,
                                                 capsys):
        # elite_k keeps its default 4, which is not below 2
        cfg = tmp_path / "small.cfg"
        cfg.write_text("population_size = 2\n")
        assert main(["schedule", "--algo", "dp", "-M", "4", "--config",
                     str(cfg)]) == EXIT_USAGE
        assert f"error: {cfg}: elite_k must satisfy" in capsys.readouterr().err
        cfg.write_text("population_size = 2\nelite_k = 1\n")
        assert load_config(cfg) == {"population_size": 2, "elite_k": 1}

    def test_objective_checked_at_load(self, tmp_path, capsys):
        # only the --objective flag had choices; the key went into the payload
        cfg = tmp_path / "objective.cfg"
        cfg.write_text("seed = 1\nobjective = foo\n")
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert str(info.value) == (
            f"{cfg}:2: objective must be one of "
            "('tiles', 'latency', 'balanced'), got 'foo'"
        )
        argv = ["schedule", "--algo", "greedy", "-M", "4", "--config", str(cfg)]
        assert main(argv) == EXIT_USAGE
        assert f"error: {cfg}:2: objective must be one of" in capsys.readouterr().err
        for objective in ("tiles", "latency", "balanced"):
            cfg.write_text(f"objective = {objective}\n")
            assert load_config(cfg) == {"objective": objective}

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


class TestRefusals:
    """Refusals of malformed files and out-of-range values, each pinned
    by its exit code and its whole stderr line."""

    def test_config_comment_and_blank_lines_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("# planner settings\n\nseed = 3  # for random\n")
        argv = ["schedule", "--algo", "random", "-M", "4", "--config", str(cfg),
                "-o", "-"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["seed"] == 3

    @pytest.mark.parametrize("text, message", [
        ("beta 0.25\n", "1: expected key = value"),
        ("population_size = 1e3\n", "1: cannot parse '1e3' as int"),
    ])
    def test_malformed_config_line(self, circuit_file, tmp_path, capsys, text,
                                   message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        canonical = tmp_path / "canonical.json"
        main(["transpile", str(circuit_file), "-o", str(canonical)])
        capsys.readouterr()
        assert main(["optimize", str(canonical), "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {cfg}:{message}\n")

    def test_circuit_of_comments_only(self, tmp_path, capsys):
        path = tmp_path / "comments.qc"
        path.write_text("# no header\n# and no gates\n")
        assert main(["transpile", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", 'error: line 1: missing "qubits N" header\n')

    @pytest.mark.parametrize("text, message", [
        ("# comments only\n", "catalog contains no protocols"),
        ("a 11 x 1 15 35 3\n",
         "catalog line 1: invalid literal for int() with base 10: 'x'"),
        ("a 11 11 1 15 35 3\na 14 17 4 20 1 2\n", "duplicate protocol name 'a'"),
    ], ids=["empty", "non-integer", "duplicate-name"])
    def test_malformed_catalog(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.cat"
        path.write_text(text)
        argv = ["schedule", "--algo", "dp", "-M", "4", "--catalog", str(path)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_verify_against_a_form_of_another_width(self, tmp_path, capsys):
        two, three = tmp_path / "two.qc", tmp_path / "three.qc"
        two.write_text("qubits 2\nh 0\nt 1\n")
        three.write_text("qubits 3\nh 0\nt 1\n")
        form = tmp_path / "three.json"
        main(["transpile", str(three), "-o", str(form)])
        capsys.readouterr()
        assert main(["verify", str(two), str(form)]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: qubit count mismatch between circuit and canonical form\n")

    def test_balanced_weight_out_of_range(self, capsys):
        argv = ["schedule", "--algo", "brute", "-M", "4", "--objective", "balanced",
                "--weight", "7"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: balanced weight must be in [0, 1]\n")

    def test_estimate_target_out_of_reach(self, capsys):
        argv = ["estimate", "--distance", "3", "--p", "0.0099999", "--target", "1e-300"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: no distance up to 10001 reaches 1e-300 at p=0.0099999\n")


# sha256 of `transpile -o` and `optimize -o` (asap) output for the seeded
# n = 16, 300-gate circuit below, as written when the running tableau held
# PauliString objects, and of `optimize --method greedy` and `--method ga
# --seed 3` output, as written when the payload was a dict for
# json.dumps; the bytes must not move
COMPILE_GOLDEN_SHA256 = {
    "canonical.json": "db5c50279d886db8ce774cd13b82b6817d817cd9f49d40e875673d4b0b74f018",
    "layered.json": "624f142bb08c386c5c37ad70f3c562827658a3db2ad60c75d949e86f699e8a51",
    "greedy.json": "76a95a275c854d737d5b0ca816561ce2c4017e512ac5463a6deb98a0c407e1d9",
    "ga.json": "89e234a934a9f995d8c2913308f6a9c301368d50e0a8fd3dc89bc55399f69af2",
}


class TestGoldenCompile:
    def test_transpile_and_optimize_bytes(self, tmp_path, capsys):
        src = tmp_path / "c.qc"
        src.write_text(render_circuit(random_circuit(16, 300, random.Random(2024))))
        canonical = tmp_path / "canonical.json"
        assert main(["transpile", str(src), "-o", str(canonical)]) == EXIT_OK
        for name, method in (("layered.json", []),
                             ("greedy.json", ["--method", "greedy"]),
                             ("ga.json", ["--method", "ga", "--seed", "3"])):
            assert main(["optimize", str(canonical), *method,
                         "-o", str(tmp_path / name)]) == EXIT_OK
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in COMPILE_GOLDEN_SHA256}
        assert digests == COMPILE_GOLDEN_SHA256


class TestRepeatedCalls:
    def test_one_call_leaves_nothing_for_the_next(self, circuit_file, tmp_path, capsys):
        # flags given to one call in a process must not reach a later one
        canonical_json = tmp_path / "canonical.json"
        assert main(["transpile", str(circuit_file), "-o", str(canonical_json)]) == EXIT_OK
        for name, method in (("asap1.json", []),
                             ("ga.json", ["--method", "ga", "--seed", "3"]),
                             ("asap2.json", [])):
            assert main(["optimize", str(canonical_json), *method,
                         "-o", str(tmp_path / name)]) == EXIT_OK
        first, ga, second = (tmp_path / name for name in ("asap1.json", "ga.json", "asap2.json"))
        assert json.loads(ga.read_text())["method"] == "ga"
        assert first.read_bytes() == second.read_bytes()


class TestWrongGateRule:
    """Negative control: transpile's tableau comes from the gate rules, and
    the reader rebuilds it from the Clifford trace, so a wrong rule is
    refused by every command that reads the payload."""

    def test_s_with_the_phase_of_sdg(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(canonical.GATE_RULES, "s", canonical.GATE_RULES["sdg"])
        src, payload = tmp_path / "c.qc", tmp_path / "c.json"
        src.write_text("qubits 1\ns 0\nh 0\nt 0\n")
        assert main(["transpile", str(src), "-o", str(payload)]) == EXIT_OK
        capsys.readouterr()
        for argv in (["optimize", str(payload)], ["verify", str(src), str(payload)]):
            assert main(argv) == EXIT_USAGE
            assert ("measurement bases inconsistent with Clifford trace"
                    in capsys.readouterr().err)
        monkeypatch.undo()
        assert main(["transpile", str(src), "-o", str(payload)]) == EXIT_OK
        assert main(["verify", str(src), str(payload)]) == EXIT_OK


class TestResourceExhaustion:
    """Running out of memory or stack exits 3, never 1, which is verify's
    FAIL code, with one error line that names what ran out."""

    @pytest.mark.parametrize("command", ["transpile", "verify"])
    @pytest.mark.parametrize("exc, line", [
        (MemoryError(), "error: MemoryError\n"),
        (MemoryError("no room"), "error: MemoryError: no room\n"),
        (RecursionError("maximum recursion depth exceeded"),
         "error: RecursionError: maximum recursion depth exceeded\n"),
    ])
    def test_exits_3_with_one_line(self, circuit_file, monkeypatch, capsys,
                                   command, exc, line):
        def exhausted(args):
            raise exc

        monkeypatch.setattr(cli, f"cmd_{command}", exhausted)
        argv = [command, str(circuit_file)] + ([str(circuit_file)] if command == "verify" else [])
        assert main(argv) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line)


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


def test_compile_commands_import_no_numpy(tmp_path):
    # only decode (through codes) and verify (through oracle) use numpy;
    # the package's codes names still resolve, importing it on first use
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    circuit = tmp_path / "c.qc"
    circuit.write_text(CIRCUIT)
    script = f"""
import sys
import pauliflow.cli
print("numpy" in sys.modules)
main = pauliflow.cli.main
main(["transpile", {str(circuit)!r}, "-o", {str(tmp_path / "c.json")!r}])
main(["optimize", {str(tmp_path / "c.json")!r}, "--method", "ga"])
main(["schedule", "--algo", "dp", "-M", "4"])
main(["estimate", "--distance", "3", "--p", "1e-4"])
print("numpy" in sys.modules)
import pauliflow
print(pauliflow.build_lookup is pauliflow.codes.build_lookup, "numpy" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, check=True).stdout.splitlines()
    assert [out[0], out[-2], out[-1]] == ["False", "False", "True True"]
