"""Documentation consistency: DESIGN.md, README.md, EXPERIMENTS.md and
docs/API.md must stay in sync with the code they describe."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = (ROOT / "DESIGN.md").read_text()
README = (ROOT / "README.md").read_text()
EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text()


def module_files():
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name != "__init__.py" and path.name != "__main__.py":
            yield path


class TestDesignInventory:
    def test_every_module_named_in_design(self):
        missing = [
            str(path.relative_to(ROOT / "src" / "repro"))
            for path in module_files()
            if path.name not in DESIGN
        ]
        assert not missing, f"DESIGN.md inventory is missing: {missing}"

    def test_every_benchmark_indexed(self):
        benches = sorted(
            p.name for p in (ROOT / "benchmarks").glob("test_*.py")
        )
        missing = [b for b in benches if b not in DESIGN]
        assert not missing, f"DESIGN.md experiment index is missing: {missing}"

    def test_paper_check_is_present(self):
        assert "Paper-text check" in DESIGN


class TestReadme:
    def test_every_example_listed(self):
        examples = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
        missing = [e for e in examples if e not in README]
        assert not missing, f"README example table is missing: {missing}"

    def test_docs_linked(self):
        for doc in ("ALGORITHM.md", "TRACES.md", "API.md"):
            assert doc in README, doc
            assert (ROOT / "docs" / doc).exists(), doc

    def test_quickstart_snippet_matches_api(self):
        # The names used in the README snippet must exist in the package.
        import repro

        for name in ("PathmapConfig", "build_rubis", "compute_service_graphs"):
            assert hasattr(repro, name)


class TestApiIndex:
    def test_api_doc_is_generated_from_the_code(self):
        spec = importlib.util.spec_from_file_location(
            "gen_api_doc", ROOT / "tools" / "gen_api_doc.py"
        )
        gen_api_doc = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen_api_doc)
        committed = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
        assert committed == gen_api_doc.render(), (
            "docs/API.md is stale: run python tools/gen_api_doc.py"
        )


class TestExperiments:
    def test_every_paper_artifact_covered(self):
        for exp in ("FIG5", "FIG6", "FIG7", "FIG9", "FIG10", "TAB1",
                    "DELTA", "SKEW", "CPLX", "ACC"):
            assert f"## {exp}" in EXPERIMENTS, exp

    def test_every_result_artifact_referenced_by_a_bench(self):
        # Each EXPERIMENTS results/<name>.txt reference must have a bench
        # that writes it.
        import re

        bench_sources = "\n".join(
            p.read_text() for p in (ROOT / "benchmarks").glob("test_*.py")
        )
        for name in re.findall(r"results/([a-z0-9_]+\.txt)", EXPERIMENTS):
            assert f'"{name}"' in bench_sources, name

    def test_honest_deviations_section_exists(self):
        assert "Honest-deviation summary" in EXPERIMENTS
