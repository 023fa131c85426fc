"""A service process loads numpy only for the schemes that compute with it.

Float-point labels and Prime's sieve use numpy; the service's default
scheme and the containment and prefix schemes do not.  The check runs in
a fresh interpreter, since this test process has long imported it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = """
import sys

from repro.service import DocumentService, ServiceConfig

service = DocumentService(ServiceConfig(root_dir=sys.argv[1]))
try:
    for scheme in ("QED-Prefix", "V-CDBS-Containment"):
        doc = service.create_document(
            '<play><speech who="a"><line>x</line></speech></play>', scheme
        )["doc_id"]
        service.update(
            doc, {"kind": "insert_child", "parent": 0, "xml": '<line n="2">y</line>'}
        )
        assert "<line n=\\"2\\">y</line>" in service.xml(doc)[1]
finally:
    service.close()
print("numpy" in sys.modules)
"""


def test_service_round_trip_never_imports_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
