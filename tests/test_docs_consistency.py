"""Meta-tests keeping the documentation and the code in sync."""

import glob
import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(*parts):
    with open(os.path.join(REPO, *parts)) as handle:
        return handle.read()


class TestExperimentIndex:
    def test_every_bench_file_exists(self):
        """Every bench named in DESIGN.md's experiment index exists."""
        design = read("DESIGN.md")
        for match in re.finditer(r"benchmarks/(test_\w+\.py)", design):
            path = os.path.join(REPO, "benchmarks", match.group(1))
            assert os.path.exists(path), match.group(1)

    def test_every_named_script_exists(self):
        """Every ``tools/`` or ``renderbench/`` script named in the
        README, the docs, the skill notes or the package source exists,
        and none of them points at a retired ``BENCH_*.json`` file."""
        paths = ["README.md"]
        paths += glob.glob(os.path.join(REPO, "docs", "*.md"))
        paths += glob.glob(
            os.path.join(REPO, ".claude", "skills", "**", "SKILL.md"),
            recursive=True,
        )
        paths += glob.glob(
            os.path.join(REPO, "src", "repro", "**", "*.py"), recursive=True
        )
        script = re.compile(r"(?<![\w/.])((?:tools|renderbench)/[\w/]+\.py)")
        for path in paths:
            text = read(path)
            for match in script.finditer(text):
                assert os.path.exists(os.path.join(REPO, match.group(1))), (
                    "%s names missing %s" % (path, match.group(1))
                )
            assert not re.search(r"BENCH_\w+\.json", text), path

    def test_every_bench_file_is_indexed(self):
        """Every benchmark file appears in DESIGN.md and benchmarks/README."""
        design = read("DESIGN.md")
        bench_readme = read("benchmarks", "README.md")
        for name in os.listdir(os.path.join(REPO, "benchmarks")):
            if not (name.startswith("test_") and name.endswith(".py")):
                continue
            assert name in design, "%s missing from DESIGN.md" % name
            assert name in bench_readme, "%s missing from benchmarks/README.md" % name

    def test_experiment_ids_contiguous(self):
        design = read("DESIGN.md")
        ids = sorted(
            int(m.group(1)) for m in re.finditer(r"\| E(\d+) \|", design)
        )
        assert ids == list(range(1, len(ids) + 1))

    def test_experiments_md_covers_every_id(self):
        design = read("DESIGN.md")
        experiments = read("EXPERIMENTS.md")
        for match in re.finditer(r"\| E(\d+) \|", design):
            assert ("E%s " % match.group(1)) in experiments, match.group(0)


class TestModuleReferences:
    def test_design_inventory_modules_importable(self):
        """Every `repro.x.y` dotted name in DESIGN.md imports."""
        import importlib

        design = read("DESIGN.md")
        names = set(re.findall(r"`(repro(?:\.\w+)+)`", design))
        assert names
        for dotted in sorted(names):
            module_path = dotted
            try:
                importlib.import_module(module_path)
            except ImportError:
                # May be module.attribute; try the parent.
                parent, _, attr = dotted.rpartition(".")
                module = importlib.import_module(parent)
                assert hasattr(module, attr), dotted

    def test_readme_examples_exist(self):
        readme = read("README.md")
        for match in re.finditer(r"`(\w+\.py)` \|", readme):
            path = os.path.join(REPO, "examples", match.group(1))
            assert os.path.exists(path), match.group(1)

    def test_paper_mapping_tests_exist(self):
        mapping = read("docs", "paper_mapping.md")
        for match in re.finditer(r"tests/(test_\w+\.py)", mapping):
            assert os.path.exists(
                os.path.join(REPO, "tests", match.group(1))
            ), match.group(1)

    def test_examples_all_have_tests(self):
        example_tests = read("tests", "test_examples.py")
        for name in os.listdir(os.path.join(REPO, "examples")):
            if name.endswith(".py"):
                assert name in example_tests, (
                    "%s has no test in test_examples.py" % name
                )


class TestServeWire:
    def test_documented_frame_media_type_is_the_served_one(self):
        """Every ``application/vnd.repro.*`` media type the docs and the
        skill notes name is the one ``repro.serve.http`` negotiates."""
        from repro.serve.http import FRAME_MEDIA_TYPE

        paths = [
            os.path.join(REPO, "docs", "operations.md"),
            os.path.join(REPO, "docs", "performance.md"),
            os.path.join(REPO, ".claude", "skills", "verify", "SKILL.md"),
        ]
        for path in paths:
            named = set(re.findall(r"application/vnd\.repro\.[\w.+-]+",
                                   read(path)))
            assert named == {FRAME_MEDIA_TYPE}, (path, named)
