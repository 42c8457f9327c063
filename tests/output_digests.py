"""Digest the CLI's output over a fixed command set, one line per command.

    python tests/output_digests.py SRC_DIR > digests.txt

imports cableopt from SRC_DIR and runs every command in this one process:
7 cable lengths x 6 internal-check configurations x 6 commands (optimize
free and at 150 and 280 MW, the golden sweep, the golden annual and a
one-length envelope), then per check configuration an envelope over 80-420
km, through the infeasible tail, at five voltages, each as CSV and as JSON,
516 in all.  The 0.5 km cable is there for the ill-conditioned rating
corners of a short cable.  Each line is
`exit sha256 argv`, the digest being that of stdout and stderr together
and argv ending in the study file's JSON, so two source trees, or two
numpy dispatches of one tree (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4
AVX512_ICL AVX512_SPR" for the baseline loops), compare with one diff.
pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

LENGTHS_KM = (0.5, 60.0, 120.0, 150.0, 200.0, 250.0, 300.0)
CHECKS = ({}, {"check_internal_current": True}, {"check_internal_voltage_max": 0.75},
          {"check_internal_voltage_max": 0.9}, {"check_internal_voltage_max": 1.0},
          {"check_internal_current": True, "check_internal_voltage_max": 0.9})
COMMANDS = (
    ["optimize"],
    ["optimize", "--p-farm-mw", "150"],
    ["optimize", "--p-farm-mw", "280"],
    ["sweep", "--p-min-mw", "50", "--p-max-mw", "350", "--p-step-mw", "100",
     "--voltages", "0.6", "--optimal-range", "0.4", "1.0"],
    ["annual", "--rated-mw", "320", "--synth-uf", "0.46", "--n-bins", "10",
     "--strategy", "fixed:1.0", "--strategy", "range:0.4:1.0"],
    ["envelope", "--lengths-km", "{length}", "--voltages", "1.0,0.6"],
)
ENVELOPE = ["envelope", "--lengths-km", "80:420:20", "--voltages", "1.0,0.85,0.7,0.55,0.4"]


def commands():
    """(argv without --config, study file) of every command, in output order."""
    for length in LENGTHS_KM:
        for checks in CHECKS:
            study = {"cable": {"length_km": length}, "constraints": checks}
            for command in COMMANDS:
                for fmt in ([], ["--json"]):
                    yield [x.format(length=f"{length:g}") for x in command] + fmt, study
    for checks in CHECKS:
        for fmt in ([], ["--json"]):
            yield ENVELOPE + fmt, {"constraints": checks}


def run(main, argv):
    """(exit code, stdout and stderr) of main(argv); an uncaught exception counts as exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            # the type and message only: a traceback names the source tree's paths
            err.write(f"{type(exc).__name__}: {exc}\n")
            code = 1
    return code, out.getvalue() + "\0" + err.getvalue()


def main(src_dir):
    sys.path.insert(0, str(Path(src_dir).resolve()))
    from cableopt.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.json"
        for argv, study in commands():
            text = json.dumps(study)
            path.write_text(text, encoding="utf-8")
            code, output = run(cli_main, argv + ["--config", str(path)])
            digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
            print(code, digest, " ".join(argv), text)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
