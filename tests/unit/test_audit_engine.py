"""Engine semantics: suppression precision, pragmas, resolution, findings."""

import textwrap

from repro.audit import audit_source
from repro.audit.engine import module_name_for


def audit(source, module="repro.core.fake"):
    return audit_source(textwrap.dedent(source), module=module)


class TestSuppressionSemantics:
    def test_allow_silences_exactly_one_rule_on_its_line(self):
        # DET005 and ST002 fire on the same line; only DET005 is allowed.
        findings = audit(
            """
            import random
            import time

            def draw(flag):
                return random.random() if flag else time.time()  # repro: allow(DET005)
            """
        )
        assert [f.rule for f in findings] == ["ST002"]

    def test_allow_does_not_reach_other_lines(self):
        findings = audit(
            """
            import random

            def draw():
                excused = random.random()  # repro: allow(DET005)
                return random.random()
            """
        )
        assert [f.rule for f in findings] == ["DET005"]
        assert findings[0].line == 6

    def test_multiple_ids_in_one_comment(self):
        findings = audit(
            """
            import random
            import time

            def draw(flag):
                return random.random() if flag else time.time()  # repro: allow(DET005, ST002)
            """
        )
        assert findings == []

    def test_unknown_rule_id_is_itself_reported(self):
        findings = audit(
            """
            import random

            def draw():
                return random.random()  # repro: allow(DET999)
            """
        )
        assert sorted(f.rule for f in findings) == ["AUD001", "DET005"]
        unknown = next(f for f in findings if f.rule == "AUD001")
        assert "DET999" in unknown.message

    def test_prose_about_suppressions_in_docstrings_is_inert(self):
        findings = audit(
            '''
            import random

            def draw():
                """Docs may say `# repro: allow(DET005)` without effect."""
                return random.random()
            '''
        )
        assert [f.rule for f in findings] == ["DET005"]


class TestScoping:
    def test_module_pragma_overrides_path_derivation(self):
        source = textwrap.dedent(
            """
            # repro: module=repro.net.fake
            import time

            def deadline():
                return time.monotonic()
            """
        )
        findings = audit_source(source, path="anywhere.py")
        assert [f.rule for f in findings] == ["ST002"]

    def test_scoped_rules_skip_unrelated_modules(self):
        # Monotonic timing is fine in telemetry scope.
        findings = audit(
            """
            import time

            def elapsed(start):
                return time.monotonic() - start
            """,
            module="repro.obs.fake",
        )
        assert findings == []

    def test_non_repro_files_only_get_universal_rules(self):
        findings = audit(
            """
            import time
            import random

            def helper():
                return time.monotonic(), random.random()
            """,
            module="tests.helpers.fake",
        )
        assert [f.rule for f in findings] == ["DET005"]

    def test_module_name_for_src_layout(self):
        assert module_name_for("src/repro/net/link.py") == "repro.net.link"
        assert module_name_for("src/repro/net/__init__.py") == "repro.net"


class TestResolution:
    def test_aliased_imports_resolve(self):
        findings = audit(
            """
            import numpy as np

            def draw():
                return np.random.normal()
            """
        )
        assert [f.rule for f in findings] == ["DET005"]

    def test_from_import_resolves(self):
        findings = audit(
            """
            from random import random

            def draw():
                return random()
            """
        )
        assert [f.rule for f in findings] == ["DET005"]

    def test_explicit_generators_are_safe(self):
        findings = audit(
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """
        )
        assert findings == []

    def test_local_names_do_not_false_positive(self):
        findings = audit(
            """
            def draw(stream):
                return stream.random()
            """
        )
        assert findings == []

    def test_maximal_chain_reports_once(self):
        findings = audit(
            """
            from datetime import datetime

            def now():
                return datetime.now()
            """,
            module="repro.net.fake",
        )
        assert [f.rule for f in findings] == ["ST002"]


class TestEngineFindings:
    def test_syntax_error_becomes_parse_finding(self):
        findings = audit_source("def broken(:\n", module="repro.core.fake")
        assert [f.rule for f in findings] == ["AUD002"]

    def test_findings_carry_location(self):
        findings = audit(
            """
            import random

            def draw():
                return random.random()
            """
        )
        (finding,) = findings
        assert (finding.line, finding.col) == (5, 12)
        assert finding.render() == (
            "<memory>:5:12: DET005 `random.random` draws global RNG state "
            "or ambient entropy; use a seeded `RngFactory` stream"
        )
