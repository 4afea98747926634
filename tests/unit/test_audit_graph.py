"""Call-graph builder coverage: extraction, resolution, reachability.

The whole-program pass stands on three resolution behaviors the
interprocedural rules assume: re-exports chase through ``__init__``
export tables, ``self.method()`` resolves through the class and its
project-resolvable bases, and cycles terminate. Each is pinned here
against hand-built multi-module projects.
"""

import textwrap

from repro.audit.engine import analyze_source
from repro.audit.graph import (
    MODULE_BODY,
    ProjectIndex,
    find_sink_chains,
)


def facts_for(source, module):
    return analyze_source(textwrap.dedent(source), module=module).facts


def build_index(modules):
    return ProjectIndex(
        [facts_for(source, name) for name, source in modules.items()]
    )


def clock_sink(call, holder):
    return call.target if call.target == "time.time" else None


class TestFactExtraction:
    def test_functions_methods_and_module_body(self):
        facts = facts_for(
            """
            import util

            RULES = util.build()


            def free():
                return util.helper()


            class Box:
                def get(self):
                    return self.compute()

                def compute(self):
                    return 1
            """,
            "pkg.mod",
        )
        quals = {fn.qual for fn in facts.functions}
        assert quals == {
            "pkg.mod.free",
            "pkg.mod.Box.get",
            "pkg.mod.Box.compute",
            f"pkg.mod.{MODULE_BODY}",
        }
        by_qual = {fn.qual: fn for fn in facts.functions}
        body = by_qual[f"pkg.mod.{MODULE_BODY}"]
        assert [c.target for c in body.calls] == ["util.build"]
        get = by_qual["pkg.mod.Box.get"]
        assert [(c.kind, c.target) for c in get.calls] == [("self", "compute")]

    def test_unresolvable_object_calls_are_dropped(self):
        facts = facts_for(
            """
            def run(handler):
                handler.fire()
                return callbacks[0]()
            """,
            "pkg.mod",
        )
        (run,) = [f for f in facts.functions if f.name == "run"]
        # `handler.fire()` is a call through an arbitrary object and
        # `callbacks[0]()` has no name at all: neither becomes an edge.
        assert run.calls == []

    def test_default_arguments_attributed_to_function(self):
        facts = facts_for(
            """
            import util


            def run(limit=util.default_limit()):
                return limit
            """,
            "pkg.mod",
        )
        (run,) = [f for f in facts.functions if f.name == "run"]
        assert [c.target for c in run.calls] == ["util.default_limit"]

    def test_import_time_code_belongs_to_module_body(self):
        facts = facts_for(
            """
            import os
            import util


            @util.register
            class Box:
                nonce = os.urandom

                def get(self, size=util.default_size()):
                    return util.helper(size)
            """,
            "pkg.mod",
        )
        by_qual = {fn.qual: fn for fn in facts.functions}
        body = by_qual[f"pkg.mod.{MODULE_BODY}"]
        # The decorator and the class attribute run at import time; the
        # method's default is attributed to the method (as a call).
        assert sorted(u.target for u in body.uses) == [
            "os.urandom", "util.register"
        ]
        get = by_qual["pkg.mod.Box.get"]
        assert [c.target for c in get.calls] == [
            "util.helper", "util.default_size"
        ]


class TestResolution:
    def test_reexport_chases_through_init(self):
        index = build_index(
            {
                "pkg": """
                    from .inner import Route
                """,
                "pkg.inner": """
                    class Route:
                        def __init__(self):
                            self.hops = []

                        def walk(self):
                            return self.hops
                """,
            }
        )
        # Class reference through the package __init__ resolves to the
        # real class's __init__ (instantiation executes it) ...
        assert index.resolve_dotted("pkg.Route") == "pkg.inner.Route.__init__"
        # ... and attribute access past the re-export keeps resolving.
        assert index.resolve_dotted("pkg.Route.walk") == "pkg.inner.Route.walk"

    def test_cyclic_reexports_resolve_to_none(self):
        index = build_index(
            {
                "a": "from b import thing\n",
                "b": "from a import thing\n",
            }
        )
        assert index.resolve_dotted("a.thing") is None

    def test_self_method_resolves_through_project_bases(self):
        index = build_index(
            {
                "lib.base": """
                    import time


                    class Base:
                        def helper(self):
                            return time.time()
                """,
                "lib.derived": """
                    from lib.base import Base


                    class Derived(Base):
                        def run(self):
                            return self.helper()
                """,
            }
        )
        assert (
            index.resolve_method("lib.derived", "Derived", "helper")
            == "lib.base.Base.helper"
        )
        start = index.functions["lib.derived.Derived.run"]
        chains = find_sink_chains(index, start, clock_sink)
        assert len(chains) == 1
        chain, sink_call, holder, first_hop = chains[0]
        assert chain == ["lib.derived.Derived.run", "lib.base.Base.helper"]
        assert sink_call.target == "time.time"
        assert holder.module == "lib.base"
        assert first_hop.lineno == start.calls[0].lineno


class TestReachability:
    def test_mutual_recursion_terminates_and_finds_sink(self):
        index = build_index(
            {
                "m.a": """
                    from m.b import pong


                    def ping(n):
                        return pong(n - 1)
                """,
                "m.b": """
                    import time

                    from m.a import ping


                    def pong(n):
                        if n > 0:
                            return ping(n)
                        return time.time()
                """,
            }
        )
        start = index.functions["m.a.ping"]
        chains = find_sink_chains(index, start, clock_sink)
        assert [c[0] for c in chains] == [["m.a.ping", "m.b.pong"]]

    def test_direct_sink_is_a_chain_of_length_zero(self):
        index = build_index(
            {
                "m.solo": """
                    import time


                    def stamp():
                        return time.time()
                """,
            }
        )
        start = index.functions["m.solo.stamp"]
        ((chain, sink, holder, anchor),) = find_sink_chains(
            index, start, clock_sink
        )
        assert chain == ["m.solo.stamp"]
        assert holder is start
        # A length-0 chain anchors at the use itself.
        assert anchor is sink
        assert sink.lineno == 6

    def test_shortest_chain_wins_per_sink(self):
        index = build_index(
            {
                "m.entry": """
                    from m.near import short
                    from m.far import long_a


                    def go():
                        long_a()
                        short()
                """,
                "m.near": """
                    import time


                    def short():
                        return time.time()
                """,
                "m.far": """
                    from m.near import short


                    def long_a():
                        return long_b()


                    def long_b():
                        return short()
                """,
            }
        )
        start = index.functions["m.entry.go"]
        chains = find_sink_chains(index, start, clock_sink)
        # One result per distinct sink name, reached via the BFS-shortest
        # chain (entry -> near.short), not the three-hop detour.
        assert [c[0] for c in chains] == [["m.entry.go", "m.near.short"]]
