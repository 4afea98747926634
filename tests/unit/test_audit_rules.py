"""Rule-family coverage: every family catches its fixture violations and
passes the suppressed/allowlisted twin (tests/fixtures/audit/)."""

import os
import re
import textwrap
from collections import Counter

from repro.audit import audit_paths, audit_source
from repro.audit.catalog import all_rules, known_rule_ids
from repro.audit.engine import split_rules

FIXTURES = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "fixtures", "audit")
)
DOCS = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "docs", "AUDIT.md")
)


def audit_fixture(name):
    return audit_paths([os.path.join(FIXTURES, name)], root=FIXTURES)


def rule_counts(findings):
    return Counter(finding.rule for finding in findings)


class TestDeterminismFamily:
    def test_violations_caught(self):
        counts = rule_counts(audit_fixture("bad_determinism.py"))
        # random.random(), np.random.uniform() and os.urandom(16): direct
        # uses, i.e. DET005 chains of length 0.
        assert counts["DET005"] == 3
        # The module-level random.Random(7).
        assert counts["DET002"] == 1
        # time.time() wall clock + time.monotonic() outside telemetry.
        assert counts["ST002"] == 2

    def test_allowed_and_suppressed_twin_passes(self):
        assert audit_fixture("ok_determinism.py") == []


class TestCryptoBoundaryFamily:
    def test_violations_caught(self):
        counts = rule_counts(audit_fixture("bad_crypto.py"))
        # `import hashlib` and `import hmac` outside repro.crypto.
        assert counts["CB001"] == 2
        # mac_key -> StreamCipher, encryption_key -> mac, and the
        # derive_key(master, "mac") -> StreamCipher variant.
        assert counts["CB002"] == 3

    def test_allowed_and_suppressed_twin_passes(self):
        assert audit_fixture("ok_crypto.py") == []


class TestSimTimeFamily:
    def test_violations_caught(self):
        counts = rule_counts(audit_fixture("bad_simtime.py"))
        # time.monotonic() and datetime.now() inside simulator scope.
        assert counts["ST002"] == 2

    def test_allowed_and_suppressed_twin_passes(self):
        assert audit_fixture("ok_simtime.py") == []


class TestIterationOrderFamily:
    def test_violations_caught(self):
        counts = rule_counts(audit_fixture("bad_iteration.py"))
        # `for key in {...}` and `list(set(...))`.
        assert counts["ITER001"] == 2

    def test_allowed_and_suppressed_twin_passes(self):
        assert audit_fixture("ok_iteration.py") == []


class TestFaultsFamily:
    def test_violations_caught(self):
        counts = rule_counts(audit_fixture("bad_faults.py"))
        # bare `except: pass`, `except Exception: ...`, and the
        # `except (KeyError, BaseException): pass` tuple; the blanket
        # handler with an observable body is NOT a finding.
        assert counts["FI001"] == 3

    def test_allowed_and_suppressed_twin_passes(self):
        assert audit_fixture("ok_faults.py") == []


class TestRngFlowFamily:
    def test_violations_caught(self):
        counts = rule_counts(audit_fixture("bad_rngflow.py"))
        # The pid-interpolated label and the `id(...)` label.
        assert counts["RNG001"] == 2
        # The duplicated `spawn("route-0")` and `stream("adversary")`.
        assert counts["RNG002"] == 2

    def test_duplicate_spawn_label_specifically_flagged(self):
        findings = [
            f for f in audit_fixture("bad_rngflow.py") if f.rule == "RNG002"
        ]
        spawn_dups = [f for f in findings if "route-0" in f.message]
        assert len(spawn_dups) == 1
        assert "spawn" in spawn_dups[0].message

    def test_allowed_and_suppressed_twin_passes(self):
        assert audit_fixture("ok_rngflow.py") == []


class TestInterprocFamily:
    """The whole-program pass over tests/fixtures/audit/interproc/."""

    def test_two_hop_clock_chain_flagged(self):
        findings = audit_fixture("interproc")
        assert [f.rule for f in findings] == ["ST002"]
        (finding,) = findings
        assert finding.path == "interproc/sim_chain.py"
        # The message names the full chain and the concrete sink.
        assert "time.time" in finding.message
        assert (
            "repro.mc.fake_chain.record_event -> "
            "repro_vendor.util.wrapped_now -> "
            "repro_vendor.util.slow_now" in finding.message
        )

    def test_per_file_engine_alone_misses_the_chain(self):
        # Per-file rules only: the same fixture set is completely clean
        # — which is exactly why the call-chain pass exists.
        file_rules, _ = split_rules(all_rules())
        assert (
            audit_paths(
                [os.path.join(FIXTURES, "interproc")],
                rules=file_rules,
                root=FIXTURES,
            )
            == []
        )

    def test_transitive_entropy_flagged_with_direct_finding(self):
        source = textwrap.dedent(
            """
            import random


            def draw():
                return _hidden()


            def _hidden():
                return random.random()
            """
        )
        findings = audit_source(source, module="repro.mc.fake_entropy")
        # The helper's direct use is a chain of length 0 at the sink; the
        # reach from `draw` anchors at its call to the helper.
        assert [(f.rule, f.line) for f in findings] == [
            ("DET005", 6), ("DET005", 10)
        ]
        chain = findings[0]
        assert "random.random" in chain.message
        assert "draw -> repro.mc.fake_entropy._hidden" in chain.message

    def test_sink_passed_as_a_value_is_a_use(self):
        source = textwrap.dedent(
            """
            import os


            def entropy_source(rng=None):
                return rng if rng is not None else os.urandom
            """
        )
        findings = audit_source(source, module="repro.crypto.fake")
        assert [(f.rule, f.line) for f in findings] == [("DET005", 6)]

    def test_sink_line_allow_sanctions_callers(self):
        source = textwrap.dedent(
            """
            import os


            def entropy_source(rng=None):
                return rng if rng is not None else os.urandom  # repro: allow(DET005)


            def caller():
                return entropy_source()
            """
        )
        assert audit_source(source, module="repro.mc.fake") == []


#: Direct and chained host-clock/entropy findings that must stay flagged,
#: on the same lines, whichever rule owns them.
PINNED_CHAIN_FINDINGS = {
    ("bad_determinism.py", line) for line in (13, 17, 21, 25, 30, 34)
} | {
    ("bad_simtime.py", 10),
    ("bad_simtime.py", 14),
    ("interproc/sim_chain.py", 13),
}


def test_fixture_files_never_leak_other_rules():
    """Each bad fixture triggers exactly its own family (plus nothing)."""
    expected_families = {
        "bad_determinism.py": {"DET002", "DET005", "ST002"},
        "bad_crypto.py": {"CB001", "CB002"},
        "bad_simtime.py": {"ST002"},
        "bad_iteration.py": {"ITER001"},
        "bad_faults.py": {"FI001"},
        "bad_rngflow.py": {"RNG001", "RNG002"},
        "interproc": {"ST002"},
    }
    flagged = set()
    for name, expected in expected_families.items():
        findings = audit_fixture(name)
        seen = set(rule_counts(findings))
        assert seen == expected, f"{name}: {seen} != {expected}"
        flagged |= {(f.path, f.line) for f in findings}
    assert PINNED_CHAIN_FINDINGS <= flagged


def test_every_rule_id_documented_and_every_documented_id_exists():
    """docs/AUDIT.md and the catalogue agree exactly on rule ids.

    Both directions: an undocumented rule is invisible to users, and a
    documented id with no implementation is a broken promise.
    """
    with open(DOCS, encoding="utf-8") as handle:
        text = handle.read()
    catalogued = known_rule_ids()
    # Anchor the docs-side scan to the catalogue's id prefixes so prose
    # like "HMAC-SHA256" is not mistaken for a rule id.
    prefixes = sorted({re.match(r"[A-Z]+", rid).group(0) for rid in catalogued})
    pattern = rf"\b(?:{'|'.join(prefixes)})\d{{3}}\b"
    documented = set(re.findall(pattern, text))
    assert catalogued - documented == set(), "undocumented rule ids"
    assert documented - catalogued == set(), "documented but unknown ids"
