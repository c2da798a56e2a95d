"""The docs gate (``python -m repro.verify docs``).

Coverage: GitHub slug rules, anchor extraction, link checking (files
and anchors), the two ways a document can pin a flag on one of the
repository's tools (fenced invocations with continuations, inline code
spans) — each held to that tool's real argparse parser — and the
scenario-schema vocabulary.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.verify import docs as check_docs

REPO = Path(__file__).resolve().parents[2]


class TestSlug:
    @pytest.mark.parametrize(
        "heading,slug",
        [
            ("# Plain Title", "plain-title"),
            ("## Reading the SLO board", "reading-the-slo-board"),
            ("### `autoscale` rows (one per deployment cell)",
             "autoscale-rows-one-per-deployment-cell"),
            ("## Faults and failover (`repro.faults`)",
             "faults-and-failover-reprofaults"),
        ],
    )
    def test_github_slugs(self, heading, slug):
        assert check_docs.github_slug(heading) == slug


class TestAnchors:
    def test_extracts_headings_outside_fences(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "# Top\n\n```bash\n# a comment, not a heading\n```\n\n## Sub One\n"
        )
        assert check_docs.heading_anchors(doc) == {"top", "sub-one"}


class TestLinks:
    def test_clean_doc_passes(self, tmp_path):
        (tmp_path / "other.md").write_text("# Other Page\n")
        doc = tmp_path / "d.md"
        doc.write_text(
            "see [o](other.md), [a](other.md#other-page),"
            " [w](https://example.com)\n"
        )
        assert check_docs.check_links(doc) == []

    def test_missing_file_reported(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("see [x](missing.md)\n")
        problems = check_docs.check_links(doc)
        assert len(problems) == 1 and "missing.md" in problems[0]

    def test_bad_anchor_reported(self, tmp_path):
        (tmp_path / "other.md").write_text("# Other Page\n")
        doc = tmp_path / "d.md"
        doc.write_text("see [x](other.md#nope)\n")
        problems = check_docs.check_links(doc)
        assert len(problems) == 1 and "#nope" in problems[0]

    def test_same_file_anchor(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("# Here\n\njump [down](#here), not [up](#gone)\n")
        problems = check_docs.check_links(doc)
        assert len(problems) == 1 and "#gone" in problems[0]

    def test_links_inside_fences_ignored(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("```\n[x](missing.md)\n```\n")
        assert check_docs.check_links(doc) == []


class TestFlags:
    def test_harness_commands_yield_flags(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "```bash\npython -m repro.harness serve-bench --batch-max 8\n"
            "pytest tests/ --quiet\n```\n"
        )
        flags = [f for _, f, _ in check_docs.documented_flags(doc)]
        # pytest's flag is not attributed to the harness.
        assert flags == ["--batch-max"]

    def test_continuation_lines_followed(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "```bash\npython -m repro.harness chaos-bench \\\n"
            "    --chaos-spec 'crash:s1@1.0' --bench-dir out\n```\n"
        )
        flags = [f for _, f, _ in check_docs.documented_flags(doc)]
        assert flags == ["--chaos-spec", "--bench-dir"]

    def test_inline_spans_yield_flags(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("pass `--batch-max N`; `not a flag`; `x --inner`\n")
        flags = [f for _, f, _ in check_docs.documented_flags(doc)]
        # Only spans that *start* with a flag count.
        assert flags == ["--batch-max"]

    def test_foreign_flags_skipped(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("pip wants `--no-build-isolation` here\n")
        assert check_docs.documented_flags(doc) == []

    def test_unknown_flag_fails_check(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("```\npython -m repro.harness all --bogus\n```\n")
        problems = check_docs.check_flags(doc, {"harness": {"--scale-kb"}})
        assert len(problems) == 1 and "--bogus" in problems[0]

    def test_real_parser_knows_the_real_flags(self):
        known = check_docs.tool_flags()["harness"]
        assert {"--scale-kb", "--bench-dir", "--chaos-spec", "--batch-max"} <= known

    def test_verify_flags_are_held_to_the_verify_parser(self, tmp_path):
        """No sibling-tool whitelist: a ``repro.verify`` command or inline
        span naming a flag the one real parser lacks fails, and a harness
        flag on a verify command line does too."""
        known = check_docs.tool_flags()
        assert {"--candidate", "--no-wall", "--expect-fired"} <= known["verify"]
        assert not check_docs.FOREIGN_FLAGS & known["verify"]
        doc = tmp_path / "d.md"
        doc.write_text(
            "```bash\npython -m repro.verify regression --candidate D \\\n"
            "    --no-wall --benchmarks-dir X --scale-kb 512\n```\n"
            "inline `--candidate D` is real, `--update` is gone\n"
        )
        problems = check_docs.check_flags(doc, known)
        assert len(problems) == 3
        assert "--benchmarks-dir" in problems[0] and "(verify)" in problems[0]
        assert "--scale-kb" in problems[1] and "(verify)" in problems[1]
        assert "--update" in problems[2] and "(inline)" in problems[2]


class TestScenarioSchema:
    VOCAB = {"name", "duration", "conservation", "black-friday"}

    def test_clean_doc_passes(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "| `name` | required |\n| `duration` | required |\n\n"
            "checks: `conservation`; library: `black-friday`\n"
        )
        assert check_docs.check_scenario_fields(doc, self.VOCAB) == []

    def test_undocumented_token_reported(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "| `name` | required |\n| `duration` | required |\n\n"
            "library: `black-friday`\n"
        )
        problems = check_docs.check_scenario_fields(doc, self.VOCAB)
        assert len(problems) == 1 and "'conservation'" in problems[0]

    def test_phantom_table_row_reported(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "| `name` | x |\n| `duration` | x |\n| `bogus_field` | x |\n\n"
            "`conservation` `black-friday`\n"
        )
        problems = check_docs.check_scenario_fields(doc, self.VOCAB)
        assert len(problems) == 1 and "'bogus_field'" in problems[0]

    def test_fenced_examples_do_not_count_as_documentation(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "```json\n{\"name\": 1, \"duration\": 2}\n"
            "conservation black-friday\n```\n"
        )
        problems = check_docs.check_scenario_fields(doc, self.VOCAB)
        assert len(problems) == len(self.VOCAB)

    def test_dotted_spans_document_their_parts(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("`workload.tenants[].name` and `duration`:"
                       " `conservation`, `black-friday`\n")
        assert check_docs.check_scenario_fields(doc, self.VOCAB) == []

    def test_real_vocabulary_covers_schema_checks_and_library(self):
        vocab = check_docs.scenario_vocabulary()
        assert {"topology", "think_time", "crc_identity", "rolling-upgrade"} <= vocab


class TestEndToEnd:
    def test_repo_docs_are_clean(self):
        """The committed documents must pass their own checker."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.verify", "docs"],
            env={"PYTHONPATH": str(REPO / "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
