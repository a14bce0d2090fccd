"""The runtime imports the standard library and nothing else.

Both checks run in a fresh interpreter — this process has networkx and
hypothesis loaded already, for the reference tests.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Snapshot first: ``_distutils_hack`` and friends arrive from ``.pth`` files
#: at start-up and are not the subject.  ``__mp_main__`` is the alias of
#: ``__main__`` that importing ``multiprocessing`` installs.
SNAPSHOT_THEN_IMPORT = """
import sys
before = set(sys.modules)
import repro, repro.harness.cli, repro.autoconf, repro.database, repro.isolation
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(added - sys.stdlib_module_names - {"repro", "__mp_main__"}))
"""


def _run(argv, *path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path + (SRC,))))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_importing_the_package_loads_no_third_party_module():
    done = _run(["-c", SNAPSHOT_THEN_IMPORT])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_checked_run_works_where_networkx_cannot_be_imported(tmp_path):
    stub = tmp_path / "networkx"
    stub.mkdir()
    (stub / "__init__.py").write_text(
        'raise ImportError("networkx is not a runtime dependency")\n'
    )
    done = _run(
        ["-m", "repro.harness", "--workload", "smallbank", "--config", "3layer",
         "--quick", "--workers", "1"],
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert "isolation OK" in done.stdout
