"""The system loads ``repro.parallel.comm`` and nothing else of ``repro.parallel``.

The paper's Alg. 2/3 reference kernels live in ``repro.parallel.paper_kernels``,
which ``repro.parallel`` exports lazily: importing the system's packages in a
fresh interpreter must not load it, and every exported name must still resolve.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import json, sys
import repro.api, repro.batch, repro.campaign, repro.exec, repro.service, repro.store
loaded = sorted(name for name in sys.modules if name.startswith("repro.parallel"))
import repro.parallel
resolved = {name: hasattr(repro.parallel, name) for name in repro.parallel.__all__}
print(json.dumps({"loaded": loaded, "resolved": resolved}))
"""


def _probe() -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _PROBE], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_the_system_packages_load_only_the_communicator():
    report = _probe()
    assert report["loaded"] == ["repro.parallel", "repro.parallel.comm"]
    assert report["resolved"] and all(report["resolved"].values()), report["resolved"]
