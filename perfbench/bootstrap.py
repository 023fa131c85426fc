"""Find the program's sources in the checkout this benchmark sits in.

The benchmark imports ``repro`` straight from ``<checkout>/src`` (the
package is pure Python; there is nothing to build) and never from an
installed copy, so a checkout without its sources fails loudly instead
of measuring some other version of the program.
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["ROOT", "SOURCES", "MissingProgram", "import_program"]

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package."""


def import_program() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` and import ``repro``."""
    if not (SOURCES / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SOURCES}")
    if str(SOURCES) not in sys.path:
        sys.path.insert(0, str(SOURCES))
    import repro

    if Path(repro.__file__).resolve().parent != (SOURCES / "repro").resolve():
        raise MissingProgram(f"imported repro from {repro.__file__}, not {SOURCES}")
