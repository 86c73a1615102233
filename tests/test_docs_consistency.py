"""Documentation consistency: DESIGN.md, README.md, EXPERIMENTS.md and
docs/API.md must stay in sync with the code they describe, every run
command they give must name a file that exists (``TestRunCommands``),
and the code must keep the one analyzer those documents promise
(``TestOneAnalyzer``)."""

import ast
import importlib.util
import pathlib
import re

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

        for name in ("PathmapConfig", "analyze_window", "build_rubis"):
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


def _command_lines():
    """``(file, line)`` of every place a run command can appear: fenced
    and inline code in the docs, ``run:`` steps in CI (folded blocks
    joined), and ``src/repro`` docstrings."""
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
            ROOT / "benchmarks" / "e2e" / "README.md",
            *sorted((ROOT / "docs").glob("*.md"))]
    for path in docs:
        text = path.read_text(encoding="utf-8").replace("\\\n", " ")
        for block in re.findall(r"```[^\n]*\n(.*?)```", text, flags=re.S):
            for line in block.splitlines():
                yield path.name, line
        for span in re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
            yield path.name, span
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    for step in re.findall(r"run: (?:[>|]\n((?:\s{10,}.*\n)+)|(.*))", ci):
        yield "ci.yml", " ".join(part.strip() for part in "".join(step).splitlines())
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node) or ""
                for line in doc.replace("\\\n", " ").splitlines():
                    yield path.name, line


def _missing_paths(lines):
    """``"file: line"`` for every ``(file, line)`` whose ``python`` or
    ``pytest`` command names a script or test path that does not exist."""
    missing = []
    for where, line in lines:
        for command in re.findall(r"\b(?:python3?|pytest)\b(.*)", line):
            pytest_args = "pytest" in line
            for token in command.split():
                path = token.strip("'\",;").split("::")[0]
                runnable = path.endswith(".py") or (
                    pytest_args and path.startswith(("tests/", "benchmarks/"))
                )
                if runnable and "*" not in path and not (ROOT / path).exists():
                    missing.append(f"{where}: {line.strip()}")
    return missing


class TestRunCommands:
    """Docs may tell of a removed script; they may not tell anyone to run one."""

    def test_every_run_command_names_an_existing_path(self):
        missing = _missing_paths(_command_lines())
        assert not missing, f"run commands name missing paths: {missing}"

    def test_a_removed_script_is_flagged(self):
        lines = [
            ("README.md", "PYTHONPATH=src python tools/bench_refresh.py --quick"),
            ("ci.yml", "python -m pytest -q tests/test_gone.py::TestX"),
            ("README.md", "python -m repro scenarios score -o BENCH_scenarios.json"),
            ("README.md", "pytest -q benchmarks/test_lake_speedup.py"),
            ("README.md", "The retired tools/bench_lake.py measured the fold."),
        ]
        assert _missing_paths(lines) == [
            "README.md: PYTHONPATH=src python tools/bench_refresh.py --quick",
            "ci.yml: python -m pytest -q tests/test_gone.py::TestX",
        ]

    def test_scan_reaches_docs_ci_and_docstrings(self):
        sources = {where for where, _ in _command_lines()}
        assert {"README.md", "PERFORMANCE.md", "ci.yml", "cli.py"} <= sources


def _from_scratch_uses(tree):
    """``(outermost function or None, line)`` of every reference to
    ``compute_service_graphs`` that is not a ``method="dense"`` call."""
    oracle = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(
            kw.arg == "method"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value == "dense"
            for kw in node.keywords
        ):
            oracle.add(id(node.func))
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if scope is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            named = (isinstance(child, ast.Name) and child.id == "compute_service_graphs") or (
                isinstance(child, ast.Attribute) and child.attr == "compute_service_graphs"
            )
            if named and id(child) not in oracle:
                uses.append((inner, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return uses


class TestOneAnalyzer:
    """Every gate grades the engine. In src/, benchmarks/ and examples/
    the from-scratch ``compute_service_graphs`` is named only as the dense
    oracle (``method="dense"``), as the subject of the FIG9/CPLX kernel
    benches, or by the scenario runner's from-scratch adaptive loop."""

    SUBJECT_FILES = {
        "benchmarks/test_fig9_analysis_time.py",
        "benchmarks/test_complexity_scaling.py",
    }
    SUBJECT_SCOPES = {("src/repro/scenarios/runner.py", "analyze_adaptive")}

    def test_from_scratch_analysis_is_only_the_oracle(self):
        offenders = []
        for top in ("src", "benchmarks", "examples"):
            for path in sorted((ROOT / top).rglob("*.py")):
                rel = path.relative_to(ROOT).as_posix()
                if rel in self.SUBJECT_FILES:
                    continue
                for scope, line in _from_scratch_uses(ast.parse(path.read_text())):
                    if (rel, scope) not in self.SUBJECT_SCOPES:
                        offenders.append(f"{rel}:{line}")
        assert not offenders, (
            "compute_service_graphs outside the dense oracle, FIG9/CPLX and "
            f"analyze_adaptive (use repro.core.offline.analyze_window): {offenders}"
        )
