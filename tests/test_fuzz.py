"""A fixed, seeded fuzz corpus through the CLI.

Mutated circuit texts, transpile and optimize payloads, catalogs and
config files each run through the commands that read them, all in one
subprocess under a 1 GiB address-space limit and an alarm.  Every run
must end in success (0), a usage error (2) or a refusal (3), or, for
`verify` alone, in its FAIL verdict (1); every nonzero exit prints one
`error:` line and nothing else.  Out of memory counts as a failure: an
input must be refused before it exhausts memory.

The GA is not run on mutated config files.  GAConfig refuses a
population_size * max_generations over the enumeration guard, and the
two command lines that ran on without end before it are in the corpus;
but a product just under the guard still lets the GA build 10^7
children a round, far past the alarm.  So the config files go through
`optimize --method greedy`, which checks every key and reads only beta.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from pauliflow import cli

SEED = 20261020
ADDRESS_SPACE = 1 << 30
ALARM_S = 10

CIRCUIT = """\
# fuzz base
qubits 3
h 0
t 0
cnot 0 1
t 1
h 1
tdg 2
cz 1 2
t 2
s 0
x 1
t 0
"""
CATALOG = """\
# name tiles steps outputs raw_inputs error_coeff error_exp
15-to-1  11 11 1 15 35 3
20-to-4  14 17 4 20  1 2
"""
CONFIG = """\
# one file for every command
population_size = 4
elite_k = 1
beta = 0.25
seed = 3
objective = latency
tolerance = 1e-9
streaming_ratio = 0.5
catalog = base.cat
"""
# zero, then just past the width guard (n > 3162) and far past it
WIDTHS = ["0", "3163", "10000", "100000", "999999999999999999993"]
TOKENS = ["0", "-1", "1", "2", "7", "0.5", "1e3", "nan", "inf", "-0", "x", "=",
          "#", "", "qubits", "t", "cnot", "+XYZ", "99999999999999999999",
          "٣", "1_0", "\t"]
LINES = ["qubits 2", "", "#", "cnot 0 0", "t 99", "h", "cz 2 1", "a 1 1 1 1 1 1",
         "seed = -4", "beta = 1", "wat = 2"]
VALUES = [None, True, False, -1, 0, 1, 2, 1e308, -1.5, "x", "", [], {}, "+XYZ",
          "-ZZ", 10**30, [[[[[]]]]], {"num": 1}]

# run inside the subprocess: stdin holds the argv lists, stdout gets
# [argv, exit code, stdout, stderr] for each
CHILD = f"""
import contextlib, io, json, resource, signal, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))
signal.alarm({ALARM_S})
from pauliflow.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    results.append([argv, code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def mutate_text(text: str, rng: random.Random) -> str:
    """One to three line or token mutations of a line-based file."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines)) if lines else 0
        op = rng.randrange(6)
        if op == 0 and lines:
            tokens = lines[i].split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
            lines[i] = " ".join(tokens)
        elif op == 1 and lines:
            del lines[i]
        elif op == 2 and lines:
            lines.insert(i, lines[i])
        elif op == 3:
            lines.insert(i, rng.choice(LINES))
        elif op == 4 and lines:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif lines:
            cut = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:cut] + rng.choice(TOKENS) + lines[i][cut:]
    return "\n".join(lines) + "\n"


def mutate_json(obj, rng: random.Random):
    """One or two structural mutations of a payload: a key or entry
    dropped, duplicated or replaced by a value of another kind."""
    for _ in range(rng.randint(1, 2)):
        parent, key = None, None
        node = obj
        while isinstance(node, (dict, list)) and node and rng.random() < 0.7:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, rng.choice(list(keys))
            node = node[key]
        if parent is None:
            continue
        op = rng.randrange(3)
        if op == 0:
            del parent[key]
        elif op == 1 and isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        else:
            parent[key] = json.loads(json.dumps(rng.choice(VALUES)))
    return obj


def corpus(directory: Path) -> list[list[str]]:
    """Write the seeded corpus into `directory`; return the argv lists."""
    rng = random.Random(SEED)
    d = str(directory)
    base_qc, base_json, layered = (f"{d}/base.qc", f"{d}/base.json",
                                   f"{d}/layered.json")
    out = f"{d}/out.json"
    Path(base_qc).write_text(CIRCUIT)
    Path(f"{d}/base.cat").write_text(CATALOG)
    assert cli.main(["transpile", base_qc, "-o", base_json]) == 0
    assert cli.main(["optimize", base_json, "--method", "greedy", "-o", layered]) == 0
    payloads = {"transpile": json.loads(Path(base_json).read_text()),
                "optimize": json.loads(Path(layered).read_text())}
    runs = []
    circuits = [CIRCUIT.replace("qubits 3", f"qubits {w}") for w in WIDTHS]
    circuits += [mutate_text(CIRCUIT, rng) for _ in range(120)]
    for i, text in enumerate(circuits):
        path = f"{d}/c{i}.qc"
        Path(path).write_text(text)
        runs += [["transpile", path, "-o", out], ["verify", path, base_json]]
    for kind, payload in payloads.items():
        for i in range(60):
            path = f"{d}/{kind}{i}.json"
            text = json.dumps(mutate_json(json.loads(json.dumps(payload)), rng))
            if i % 10 == 9:  # cut short, so no longer JSON
                text = text[:rng.randrange(len(text))]
            Path(path).write_text(text)
            method = ("asap", "greedy", "ga")[i % 3]
            runs += [["optimize", path, "--method", method, "-o", out],
                     ["verify", base_qc, path]]
    huge = "99999999999999999999"
    for knobs in (["--population-size", huge, "--elite-k", "1"],
                  ["--max-generations", huge, "--stagnation-limit", huge]):
        runs.append(["optimize", base_json, "--method", "ga", *knobs, "-o", out])
    for i in range(50):
        path = f"{d}/k{i}.cat"
        Path(path).write_text(mutate_text(CATALOG, rng))
        algo = ("dp", "brute", "greedy", "random")[i % 4]
        runs.append(["schedule", "--algo", algo, "-M", "20", "--catalog", path,
                     "-o", out])
    for i in range(50):
        path = f"{d}/f{i}.cfg"
        Path(path).write_text(mutate_text(CONFIG, rng))
        runs += [["optimize", base_json, "--method", "greedy", "--config", path,
                  "-o", out],
                 ["schedule", "--algo", "brute", "-M", "4", "--config", path,
                  "-o", out],
                 ["estimate", "--distance", "3", "--p", "1e-3", "--config", path,
                  "-o", out],
                 ["verify", base_qc, base_json, "--config", path]]
    return runs


def test_every_exit_is_a_verdict_a_usage_error_or_a_refusal(tmp_path):
    runs = corpus(tmp_path)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(runs),
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=60)
    # the alarm ends a child that runs past ALARM_S with SIGALRM
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    assert len(results) == len(runs) > 700
    codes = {0: 0, 1: 0, 2: 0, 3: 0}
    for argv, code, out, err in results:
        assert code in codes, (argv, code, err)
        codes[code] += 1
        if code == 0:
            assert err == "", (argv, err)
        elif code == 1:
            assert argv[0] == "verify", (argv, err)
            assert out.startswith("fidelity=") and out.endswith(" FAIL\n"), (argv, out)
            assert err == "", (argv, err)
        else:
            assert out == "", (argv, out)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert not err.startswith("error: MemoryError"), (argv, err)
    # the corpus reaches each outcome
    assert all(codes.values()), codes
