"""Allowlist-comment placement: decorated defs and multi-line statements.

Historically ``# lint: allow-<tag>`` only worked on the flagged line or
the line directly above it.  That breaks down where Python's syntax
puts the natural comment position away from the finding: a decorated
``def``'s finding anchors at the ``def`` line (below the decorators),
and a finding inside a wrapped call or annotated assignment can anchor
on a continuation line.  These are regression tests for the anchor
mechanism that fixes both — and for the blanket-suppression hazard it
must not introduce.
"""

import textwrap

from repro.analysis.engine import lint_paths
from repro.analysis.rules import rule_by_id


def lint_source(tmp_path, source, rule_id):
    p = tmp_path / "repro" / "mod.py"
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(textwrap.dedent(source))
    result = lint_paths([p], [rule_by_id(rule_id)])
    assert not result.errors, result.errors
    return result.findings


class TestDecoratedDefs:
    # An expression in the signature (here an unseeded default RNG)
    # lands its finding on the ``def`` line, below the decorators.
    SOURCE = """\
        import functools
        import numpy as np
        __all__ = ["sample"]
        {comment}
        @functools.lru_cache
        @functools.wraps(print)
        def sample(n, rng=np.random.default_rng()):
            return rng.integers(n)
        """

    def test_unsuppressed_decorated_def_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, self.SOURCE.format(comment=""), "RL001"
        )
        assert len(findings) == 1  # unseeded default_rng(), anchored at `def`
        assert findings[0].line == 7

    def test_comment_above_decorator_chain_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            self.SOURCE.format(comment="# lint: allow-random"),
            "RL001",
        )
        assert findings == []

    def test_comment_on_first_decorator_line_suppresses(self, tmp_path):
        source = self.SOURCE.format(comment="").replace(
            "@functools.lru_cache", "@functools.lru_cache  # lint: allow-random"
        )
        assert lint_source(tmp_path, source, "RL001") == []

    def test_comment_on_def_line_still_suppresses(self, tmp_path):
        source = self.SOURCE.format(comment="").replace(
            "rng=np.random.default_rng()):",
            "rng=np.random.default_rng()):  # lint: allow-random",
        )
        assert lint_source(tmp_path, source, "RL001") == []

    def test_decorated_class_suppressed_from_above_decorators(self, tmp_path):
        source = """\
            import functools
            import numpy as np
            __all__ = ["Sampler"]
            {comment}
            @functools.total_ordering
            class Sampler(object, rng=np.random.default_rng()):
                def __eq__(self, other):
                    return True
                def __lt__(self, other):
                    return False
            """
        flagged = lint_source(tmp_path, source.format(comment=""), "RL001")
        assert [f.line for f in flagged] == [6]  # the `class` line
        suppressed = source.format(comment="# lint: allow-random")
        assert lint_source(tmp_path, suppressed, "RL001") == []


class TestMultiLineStatements:
    def test_wrapped_call_suppressed_at_statement_head(self, tmp_path):
        # The finding lands on the continuation line holding the call;
        # the comment sits above the statement's first line.
        source = """\
            import numpy as np
            __all__ = ["RNG"]
            # lint: allow-random
            RNG = (
                np.random.default_rng()
            )
            """
        assert lint_source(tmp_path, source, "RL001") == []

    def test_wrapped_call_unsuppressed_still_flagged(self, tmp_path):
        source = """\
            import numpy as np
            __all__ = ["RNG"]
            RNG = (
                np.random.default_rng()
            )
            """
        findings = lint_source(tmp_path, source, "RL001")
        assert len(findings) == 1

    def test_annotated_assignment_with_wrapped_value(self, tmp_path):
        source = """\
            import numpy as np
            __all__ = ["RNG"]
            # lint: allow-random
            RNG: object = (
                np.random.default_rng()
            )
            """
        assert lint_source(tmp_path, source, "RL001") == []

    def test_comment_above_function_does_not_blanket_suppress_body(self, tmp_path):
        # Compound statements get no anchor: a comment above a def must
        # not swallow findings arbitrarily deep inside its body.
        source = """\
            import numpy as np
            __all__ = ["f"]
            # lint: allow-random
            def f():
                \"\"\"Doc.\"\"\"
                return np.random.default_rng()
            """
        findings = lint_source(tmp_path, source, "RL001")
        assert len(findings) == 1
