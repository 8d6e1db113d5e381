"""Tests for tools/deepcheck — the repo-specific invariant linter.

Covers, per rule, the good/bad corpus; suppression parsing; the
baseline round trip; and two smoke gates over the real tree: the
current ``src/`` must be clean, and a synthetically seeded violation
must fail with the right rule ID and file:line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from deepcheck import ALL_RULES, Baseline, Engine, check_source, rule_catalog  # noqa: E402
from deepcheck.cli import CORPUS_DIR, main as deepcheck_main, self_test  # noqa: E402

RULE_IDS = sorted(rule.id for rule in ALL_RULES)


def findings_for(source: str, relpath: str = "src/repro/core/snippet.py"):
    return check_source(source, relpath)


def rule_ids(findings) -> set:
    return {finding.rule for finding in findings}


# --------------------------------------------------------------------------
# Rule catalog & corpus
# --------------------------------------------------------------------------


class TestCatalog:
    def test_rule_ids_unique_and_documented(self):
        catalog = rule_catalog()
        ids = [meta["id"] for meta in catalog]
        assert len(ids) == len(set(ids))
        assert ids == RULE_IDS
        for meta in catalog:
            assert meta["name"], meta["id"]
            assert len(meta["rationale"]) > 40, meta["id"]

    def test_docs_mention_every_rule(self):
        doc = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text(encoding="utf-8")
        for rule_id in RULE_IDS:
            assert rule_id in doc, f"{rule_id} missing from docs/STATIC_ANALYSIS.md"

    def test_every_rule_has_good_and_bad_corpus(self):
        for rule_id in RULE_IDS:
            prefix = rule_id.lower()
            assert list(CORPUS_DIR.glob(f"{prefix}_bad_*.py")), rule_id
            assert list(CORPUS_DIR.glob(f"{prefix}_good_*.py")), rule_id

    def test_self_test_passes(self, capsys):
        assert self_test() == 0


def _corpus_cases():
    return sorted(CORPUS_DIR.glob("dc*_*.py"), key=lambda p: p.name)


@pytest.mark.parametrize("snippet", _corpus_cases(), ids=lambda p: p.name)
def test_corpus_snippet(snippet):
    expected_rule = snippet.name[:4].upper()
    kind = snippet.name.split("_")[1]
    findings = findings_for(
        snippet.read_text(encoding="utf-8"), "src/repro/core/corpus_snippet.py"
    )
    hit = rule_ids(findings)
    if kind == "bad":
        assert expected_rule in hit, f"expected {expected_rule}, got {sorted(hit)}"
    else:
        assert not hit, f"good snippet flagged: {[f.render() for f in findings]}"


# --------------------------------------------------------------------------
# Rule scoping
# --------------------------------------------------------------------------


class TestScoping:
    def test_runtime_is_wall_clock_allowlisted(self):
        source = "import time\n\n\ndef now() -> float:\n    return time.monotonic()\n"
        assert "DC01" in rule_ids(findings_for(source, "src/repro/core/x.py"))
        assert not rule_ids(findings_for(source, "src/repro/runtime/x.py"))

    def test_rng_module_may_wrap_random(self):
        source = (
            "import random\n\n\ndef build(seed: int):\n"
            "    return random.Random(seed)\n"
        )
        assert not rule_ids(findings_for(source, "src/repro/rng.py"))
        # A *seeded* Random elsewhere is fine too; only bare Random() and
        # module-level draws are flagged.
        assert not rule_ids(findings_for(source, "src/repro/core/x.py"))

    def test_telemetry_guard_only_in_hot_paths(self):
        source = (
            "from repro.obs import telemetry as obs\n\n\ndef run():\n"
            "    with obs.session() as bundle:\n        return bundle\n"
        )
        assert "DC04" in rule_ids(findings_for(source, "src/repro/hdd/x.py"))
        assert not rule_ids(findings_for(source, "src/repro/experiments/x.py"))

    def test_outside_src_not_scanned(self):
        source = "import time\nT = time.time()\n"
        assert not rule_ids(findings_for(source, "tests/helper.py"))


# --------------------------------------------------------------------------
# Individual rule edges beyond the corpus
# --------------------------------------------------------------------------


class TestRuleEdges:
    def test_dc01_from_import_and_datetime(self):
        findings = findings_for(
            "from time import monotonic\nfrom datetime import datetime\n\n\n"
            "def stamp():\n    return monotonic(), datetime.now()\n"
        )
        assert [f.rule for f in findings].count("DC01") >= 2

    def test_dc03_sorted_wrapper_is_clean(self):
        assert not rule_ids(
            findings_for(
                "def merge(a: dict, b: dict) -> list:\n"
                "    return [k for k in sorted(a.keys() | b.keys())]\n"
            )
        )

    def test_dc05_allows_taxonomy_and_protocol_raises(self):
        source = (
            "from repro.errors import ConfigurationError\n\n\n"
            "def __getattr__(name: str):\n"
            "    raise AttributeError(name)\n\n\n"
            "def check(x: int) -> int:\n"
            "    if x < 0:\n"
            "        raise ConfigurationError(str(x))\n"
            "    return x\n"
        )
        assert not rule_ids(findings_for(source))

    def test_dc07_same_unit_and_converted_operands_clean(self):
        assert not rule_ids(
            findings_for(
                "def f(a_hz: float, b_hz: float, gap_mm: float) -> float:\n"
                "    return (a_hz - b_hz) + mm_to_m(gap_mm) * 0.0\n\n\n"
                "def mm_to_m(x: float) -> float:\n"
                "    return x * 1e-3\n"
            )
        )

    def test_dc07_cross_dimension_compare(self):
        findings = findings_for(
            "def f(level_db: float, freq_hz: float) -> bool:\n"
            "    return level_db > freq_hz\n"
        )
        assert "DC07" in rule_ids(findings)

    @pytest.mark.parametrize(
        "read",
        [
            'os.environ.get("REPRO_DEMO", "1")',
            'os.getenv("REPRO_DEMO")',
            'os.environ["REPRO_DEMO"]',
        ],
        ids=["environ_get", "getenv", "environ_item"],
    )
    def test_dc08_flags_every_repro_env_read(self, read):
        findings = findings_for(f"import os\nFLAG = {read}\n")
        assert [f.rule for f in findings] == ["DC08"]
        assert "REPRO_DEMO" in findings[0].message

    def test_dc08_other_env_reads_and_outside_src_are_clean(self):
        assert not rule_ids(findings_for('import os\nHOME = os.environ["HOME"]\n'))
        source = 'import os\nFLAG = os.environ.get("REPRO_DEMO")\n'
        assert not rule_ids(findings_for(source, "tests/helper.py"))

    @pytest.mark.parametrize(
        "source",
        [
            "import pandas\n",
            "import os, scipy.linalg as la\n",
            "from scipy.special import jv\n",
            "def f():\n    import pandas as pd\n    return pd\n",
        ],
        ids=["module", "mixed", "from_import", "lazy"],
    )
    def test_dc09_flags_third_party_imports(self, source):
        findings = findings_for(source)
        assert [f.rule for f in findings] == ["DC09"]

    def test_dc09_stdlib_repro_relative_and_type_only_are_clean(self):
        source = (
            "import os.path\nimport typing\nfrom typing import TYPE_CHECKING\n"
            "from repro.errors import UnitError\nfrom . import sibling\n"
            "if TYPE_CHECKING:\n    import pandas\n"
            "if typing.TYPE_CHECKING:\n    from scipy import special\n"
        )
        assert not rule_ids(findings_for(source))
        assert not rule_ids(findings_for("import pandas\n", "tests/helper.py"))


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------


class TestSuppressions:
    BAD_LINE = "import time\n\n\ndef f():\n    return time.time()"

    def test_same_line_suppression(self):
        source = self.BAD_LINE + "  # deepcheck: ignore[DC01] wall time wanted here\n"
        assert not rule_ids(findings_for(source))

    def test_comment_above_suppression(self):
        source = (
            "import time\n\n\ndef f():\n"
            "    # deepcheck: ignore[DC01] wall time wanted here\n"
            "    return time.time()\n"
        )
        assert not rule_ids(findings_for(source))

    def test_wrong_rule_does_not_silence(self):
        source = self.BAD_LINE + "  # deepcheck: ignore[DC03] not the right rule\n"
        assert "DC01" in rule_ids(findings_for(source))

    def test_missing_reason_is_reported(self):
        source = self.BAD_LINE + "  # deepcheck: ignore[DC01]\n"
        ids = rule_ids(findings_for(source))
        assert "DC00" in ids  # the reasonless directive is itself a finding
        assert "DC01" in ids  # and it does not silence anything

    def test_multi_rule_directive(self):
        source = (
            "def totals(samples: list) -> float:\n"
            "    # deepcheck: ignore[DC03, DC06] dedup total; order-insensitive\n"
            "    return sum(set(samples))\n"
        )
        assert not rule_ids(findings_for(source))


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------


class TestBaseline:
    def test_round_trip_absorbs_and_expires(self, tmp_path):
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        findings = findings_for(source)
        assert findings
        baseline = Baseline.from_findings(findings, reason="legacy wall time")
        path = tmp_path / "baseline.json"
        baseline.save(path)
        reloaded = Baseline.load(path)
        new, absorbed, stale = reloaded.split(findings)
        assert not new
        assert len(absorbed) == len(findings)
        assert not stale
        # Editing the line expires the entry: same rule, different snippet.
        edited = findings_for("import time\n\n\ndef f():\n    return time.time() + 1\n")
        new, absorbed, stale = reloaded.split(edited)
        assert new and not absorbed
        assert stale == reloaded.entries

    def test_entries_carry_reasons(self, tmp_path):
        findings = findings_for("import time\n\n\ndef f():\n    return time.time()\n")
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings, reason="because physics").save(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["findings"]
        assert all(entry["reason"] for entry in data["findings"])

    def test_checked_in_baseline_is_empty(self):
        data = json.loads(
            (REPO_ROOT / "tools" / "deepcheck" / "baseline.json").read_text(
                encoding="utf-8"
            )
        )
        assert data["findings"] == []


# --------------------------------------------------------------------------
# Smoke over the real tree
# --------------------------------------------------------------------------


class TestTreeGate:
    def test_src_is_clean_of_non_baselined_findings(self):
        engine = Engine(root=REPO_ROOT)
        result = engine.run(["src"])
        assert not result.parse_errors
        baseline = Baseline.load(REPO_ROOT / "tools" / "deepcheck" / "baseline.json")
        new, _absorbed, _stale = baseline.split(result.findings)
        assert not new, "\n".join(f.render() for f in new)

    @staticmethod
    def _seeded_tree(tmp_path: Path) -> Path:
        root = tmp_path / "tree"
        (root / "src" / "repro" / "core").mkdir(parents=True)
        (root / "src" / "repro" / "obs").mkdir(parents=True)
        (root / "src" / "repro" / "core" / "poll.py").write_text(
            "import time\n\n\ndef poll() -> float:\n    return time.time()\n",
            encoding="utf-8",
        )
        (root / "src" / "repro" / "obs" / "metrics.py").write_text(
            "def merge(a: dict, b: dict) -> list:\n"
            "    out = []\n"
            "    for key in a.keys() | b.keys():\n"
            "        out.append(key)\n"
            "    return out\n",
            encoding="utf-8",
        )
        return root

    def test_seeded_violations_fail_with_rule_and_location(self, tmp_path, capsys):
        root = self._seeded_tree(tmp_path)
        status = deepcheck_main(
            ["--root", str(root), "--no-baseline", "--format", "json", "src"]
        )
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        located = {
            (f["rule"], f["path"], f["line"]) for f in payload["findings"]
        }
        assert ("DC01", "src/repro/core/poll.py", 5) in located
        assert ("DC03", "src/repro/obs/metrics.py", 3) in located

    def test_cli_text_output_has_file_line(self, tmp_path, capsys):
        root = self._seeded_tree(tmp_path)
        status = deepcheck_main(["--root", str(root), "--no-baseline", "src"])
        assert status == 1
        out = capsys.readouterr().out
        assert "src/repro/core/poll.py:5:" in out
        assert "DC01" in out


# --------------------------------------------------------------------------
# tools/lint.py chaining
# --------------------------------------------------------------------------


class TestLintChain:
    def test_lint_announces_checker_and_runs_deepcheck(self):
        proc = subprocess.run(
            [sys.executable, "tools/lint.py", "--checker", "none"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "generic checker skipped" in proc.stderr
        assert "deepcheck" in proc.stderr

    def test_lint_checker_override_is_reported(self):
        proc = subprocess.run(
            [
                sys.executable,
                "tools/lint.py",
                "--checker",
                "compileall",
                "--no-deepcheck",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "generic checker = compileall" in proc.stderr
