"""Regenerate the reference outputs in ``reference/`` from the current
``src/`` tree.

Usage, from the repository root: ``python3 perfbench/make_reference.py``

The committed files were produced from the seed commit of the benchmark.
Regenerate them only when a change to the program is meant to change its
outputs, and say so with the change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent

# reference file -> (workload, output file); the sweep reference is kept
# in nats, whichever unit the default seed picks
OUTPUTS = {
    "sweep.csv": ("sweep", "sweep.csv"),
    "certificate_mi.csv": ("certificate", "cert_mi.csv"),
    "finite_size.csv": ("finite-size", "finite.csv"),
    "tables.csv": ("tables", "tables.csv"),
}


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SPREADMI_WORKERS", None)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for ref_name, (workload, out_name) in OUTPUTS.items():
            inputs = wl.make_inputs(workload, checks.DEFAULT_SEED)
            for name, text in inputs.files.items():
                Path(tmp, name).write_text(text)
            argv = list(inputs.argv)
            if workload == "sweep":
                argv += ["--units", "nats"]
            subprocess.run([sys.executable, "-m", "spreadmi.cli", *argv],
                           cwd=tmp, env=env, check=True)
            shutil.copyfile(Path(tmp, out_name), checks.REFERENCE_DIR / ref_name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
