"""The project-wide dataflow layer: summaries, resolution, call graph.

Fixture trees are built under ``tmp_path`` with a ``repro/`` directory
component so the engine's module-path anchoring kicks in, exactly as it
does for the on-disk fixture package.
"""

import textwrap
from pathlib import Path

from repro.analysis.engine import parse_contexts
from repro.analysis.flow import build_flow_graph


def build(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path/repro and build the graph."""
    for rel, source in files.items():
        p = tmp_path / "repro" / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(source))
    contexts, errors = parse_contexts([tmp_path / "repro"])
    assert not errors, errors
    return build_flow_graph(contexts)


class TestModuleFacts:
    def test_dotted_names_and_packages(self, tmp_path):
        g = build(
            tmp_path,
            {
                "__init__.py": "",
                "a.py": "X = 1\n",
                "pkg/__init__.py": "",
                "pkg/b.py": "Y = 2\n",
            },
        )
        assert set(g.modules) == {"repro", "repro.a", "repro.pkg", "repro.pkg.b"}
        assert g.modules["repro.pkg"].is_package
        assert g.modules["repro.a"].module_globals == {"X"}

    def test_relative_imports_resolve_against_package(self, tmp_path):
        g = build(
            tmp_path,
            {
                "obs/spans.py": "def span():\n    pass\n",
                "parallel/pool.py": "from ..obs.spans import span\n",
                "parallel/sibling.py": "from .pool import thing\n",
                "pkg/__init__.py": "from . import child\n",
                "pkg/child.py": "",
            },
        )
        assert (
            g.modules["repro.parallel.pool"].imports["span"]
            == "repro.obs.spans.span"
        )
        assert (
            g.modules["repro.parallel.sibling"].imports["thing"]
            == "repro.parallel.pool.thing"
        )
        # A package's own __init__ resolves `from .` against itself.
        assert g.modules["repro.pkg"].imports["child"] == "repro.pkg.child"

    def test_resources_and_class_inventory(self, tmp_path):
        g = build(
            tmp_path,
            {
                "m.py": """\
                    import numpy as np
                    _LOG = open("x.log")
                    _RNG = np.random.default_rng(7)
                    class C:
                        __slots__ = ("a", "b")
                        @property
                        def c(self):
                            return self.a
                        def m(self):
                            pass
                    """,
            },
        )
        info = g.modules["repro.m"]
        assert info.resources == {"_LOG": ("handle", 2), "_RNG": ("rng", 3)}
        cls = g.classes["repro.m:C"]
        assert cls.slots == ("a", "b")
        assert cls.properties == ("c",)
        assert set(cls.fields) == {"a", "b", "c"}
        assert "C.m" in info.functions and info.functions["C.m"].cls == "C"


class TestSummaries:
    def test_global_writes_reads_and_mutations(self, tmp_path):
        g = build(
            tmp_path,
            {
                "m.py": """\
                    _CACHE = {}
                    _TOTAL = 0
                    def write_direct(k, v):
                        global _TOTAL
                        _TOTAL = _TOTAL + v
                        _CACHE[k] = v
                    def read_only(k):
                        return _CACHE.get(k)
                    def local_shadow():
                        _CACHE = {}
                        _CACHE["x"] = 1
                        return _CACHE
                    """,
            },
        )
        w = g.functions["repro.m:write_direct"]
        assert set(w.global_writes) == {"_TOTAL", "_CACHE"}
        assert "_TOTAL" in w.global_reads
        r = g.functions["repro.m:read_only"]
        assert not r.global_writes and "_CACHE" in r.global_reads
        s = g.functions["repro.m:local_shadow"]
        assert not s.global_writes  # the local shadows the module global

    def test_env_reads_and_new_locals(self, tmp_path):
        g = build(
            tmp_path,
            {
                "m.py": """\
                    import os
                    class V:
                        __slots__ = ("k",)
                    def f():
                        a = os.environ.get("REPRO_A")
                        b = os.environ["REPRO_B"]
                        c = os.getenv("REPRO_C")
                        out = V.__new__(V)
                        out.k = a
                        return out, b, c
                    """,
            },
        )
        f = g.functions["repro.m:f"]
        assert sorted(e.key for e in f.env_reads) == ["REPRO_A", "REPRO_B", "REPRO_C"]
        assert f.new_locals == {"out"}

    def test_nested_defs_fold_into_parent(self, tmp_path):
        g = build(
            tmp_path,
            {
                "m.py": """\
                    _HITS = []
                    def outer():
                        def inner(x):
                            _HITS.append(x)
                        return inner
                    """,
            },
        )
        outer = g.functions["repro.m:outer"]
        assert "_HITS" in outer.global_writes  # folded from inner
        assert outer.local_callables["inner"] == "<nested>"
        assert "repro.m:inner" not in g.functions


class TestResolution:
    def test_cross_module_and_reexport_chain(self, tmp_path):
        g = build(
            tmp_path,
            {
                "core/__init__.py": "from .impl import kernel\n",
                "core/impl.py": "def kernel():\n    pass\n",
                "user.py": """\
                    from .core import kernel
                    def run():
                        kernel()
                    """,
            },
        )
        assert g.resolve("repro.user", "kernel") == "repro.core.impl:kernel"
        assert g.callees("repro.user:run") == {"repro.core.impl:kernel"}

    def test_self_method_and_class_init(self, tmp_path):
        g = build(
            tmp_path,
            {
                "m.py": """\
                    class C:
                        def __init__(self):
                            self.helper()
                        def helper(self):
                            pass
                    def make():
                        return C()
                    """,
            },
        )
        assert g.callees("repro.m:C.__init__") == {"repro.m:C.helper"}
        assert g.callees("repro.m:make") == {"repro.m:C.__init__"}

    def test_partial_and_alias_chasing(self, tmp_path):
        g = build(
            tmp_path,
            {
                "m.py": """\
                    from functools import partial
                    def work(x, scale):
                        return x * scale
                    def submit(run):
                        w = partial(work, scale=2)
                        alias = w
                        run(alias)
                    """,
            },
        )
        s = g.functions["repro.m:submit"]
        assert g.resolve_call(s, "alias") == "repro.m:work"

    def test_import_cycle_terminates(self, tmp_path):
        g = build(
            tmp_path,
            {
                "a.py": """\
                    from .b import g
                    def f():
                        g()
                    """,
                "b.py": """\
                    from .a import f
                    def g():
                        f()
                    """,
            },
        )
        # Mutual recursion across a module cycle: BFS must terminate,
        # see the other side, and exclude the starting function itself.
        assert g.transitive_callees("repro.a:f") == {"repro.b:g"}
        assert g.transitive_callees("repro.b:g") == {"repro.a:f"}

    def test_unresolvable_names_are_none(self, tmp_path):
        g = build(tmp_path, {"m.py": "import numpy as np\ndef f():\n    np.sort([1])\n"})
        s = g.functions["repro.m:f"]
        assert g.resolve_call(s, "np.sort") is None
        assert g.resolve_call(s, "nowhere.at.all") is None
