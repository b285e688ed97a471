"""The README's "Library quick tour" runs as written."""

import math
import re
from pathlib import Path

from finslerlab import connection, geodesics

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The Python block under the README's "Library quick tour" heading."""
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_tour_runs(monkeypatch):
    # the disc's curvature is -4 and its unit-speed geodesic from 0 ends at
    # tanh(1) (both within 9.3e-13 measured); the connection and the
    # structure functions at p read one FrameData built there
    frames, before = [], []
    init, integrate = connection.FrameData.__init__, geodesics.integrate_geodesic

    def counted_init(self, prog, z, U):
        frames.append(1)
        init(self, prog, z, U)

    def first_geodesic(*args, **kwargs):
        before.append(len(frames))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(connection.FrameData, "__init__", counted_init)
    monkeypatch.setattr(geodesics, "integrate_geodesic", first_geodesic)
    scope = {}
    exec(compile(quick_tour(), str(README), "exec"), scope)
    assert abs(scope["sf"].R[0, 0, 0, 0] + 4) <= 1e-11
    assert abs(abs(scope["path"].zs[-1, 0]) - math.tanh(1)) <= 1e-9
    assert before == [1]
