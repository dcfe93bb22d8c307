"""The README's examples run as written."""

import contextlib
import io
import re
from pathlib import Path

from mwgraph.frames import load_frame
from mwgraph.graphs import load
from mwgraph.linalg import kernel_dim_of_values
from mwgraph.sheaf import load_truss

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title):
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _blocks(section, language):
    return re.findall(rf"```{language}\n(.*?)```", section, re.DOTALL)


def test_library_example_runs():
    (code,) = _blocks(_section("Library example"), "python")
    names = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), names)
    # what its comments say: kernel dimension 2k, and the certificate holds
    assert kernel_dim_of_values(names["ops"].laplacian_values) == 2 * names["G"].k == 4
    assert out.getvalue().splitlines()[-2] == "True"


def test_file_format_examples_load():
    graph, truss, frame = _blocks(_section("File formats"), "json")
    G = load(graph)
    assert (G.k, G.base.n, G.base.edges) == (2, 2, ((0, 1),))
    t = load_truss(truss)
    assert (len(t.points), t.edges) == (2, ((0, 1),))
    f = load_frame(frame)
    assert (f.k, len(f)) == (2, 2)
