"""An in-process service user never loads the HTTP front end.

``repro.service`` resolves ``make_server`` and ``serve`` on first use,
so ``DocumentService`` alone does not pull in ``http.server`` and the
modules behind it.  The check runs in a fresh interpreter, since this
test process has long imported them.
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
    doc = service.create_document(
        '<play><speech who="a"><line>x</line></speech></play>', "QED-Prefix"
    )["doc_id"]
    service.update(
        doc, {"kind": "insert_child", "parent": 0, "xml": "<line>y</line>"}
    )
finally:
    service.close()
print(sorted(
    name
    for name in ("http.server", "socketserver", "ssl", "email")
    if name in sys.modules
))

from repro.service import make_server, serve
from repro.service.http import make_server as http_make_server
from repro.service.http import serve as http_serve

assert make_server is http_make_server and serve is http_serve
"""


def test_in_process_service_never_imports_the_http_stack(tmp_path):
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
    assert result.stdout.strip() == "[]"
