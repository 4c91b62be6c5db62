"""Start-up cost: the CLI imports the admin HTTP server only when an
admin port is asked for, and ``repro.obs`` still exports it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(script):
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_the_cli_starts_without_the_http_server():
    loaded = run_python(
        "import sys\n"
        "import repro.cli\n"
        "print(sorted(set(sys.modules) & {'http.server', 'socketserver', "
        "'repro.obs.server'}))\n"
    )
    assert loaded == "[]"


def test_repro_obs_still_exports_the_admin_server():
    assert run_python(
        "from repro.obs import AdminServer\n"
        "from repro.obs.server import AdminServer as server\n"
        "import repro.obs\n"
        "print(AdminServer is server and 'AdminServer' in repro.obs.__all__)\n"
    ) == "True"
