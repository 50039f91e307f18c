"""Unit tests of the repo-invariant analyzer, plus the acceptance
check that the real tree is clean."""

from repro.lint.pylint_rules import lint_source_text, lint_sources


def run(snippet: str, module: str = "repro/somewhere/mod.py"):
    return lint_source_text(snippet, module)


class TestRules:
    def test_ri000_syntax_error(self):
        report = run("def broken(:\n")
        assert report.codes() == ["RI000"]

    def test_ri001_wall_clock(self):
        report = run("import time\nstart = time.time()\n")
        assert "RI001" in report.codes()

    def test_ri001_allowed_in_runtime(self):
        report = run("import time\nstart = time.time()\n",
                     module="repro/runtime/clock.py")
        assert report.ok

    def test_ri002_global_random(self):
        report = run("import random\nx = random.randint(0, 7)\n")
        assert "RI002" in report.codes()

    def test_ri002_unseeded_random_instance(self):
        report = run("import random\nrng = random.Random()\n")
        assert "RI002" in report.codes()

    def test_ri002_seeded_instance_is_fine(self):
        report = run("import random\nrng = random.Random(7)\n"
                     "x = rng.randint(0, 7)\n")
        assert report.ok

    def test_ri003_unsupervised_solve(self):
        report = run("result = solver.solve([lit])\n")
        assert "RI003" in report.codes()

    def test_ri003_allowed_in_sat_layer(self):
        report = run("result = solver.solve([lit])\n",
                     module="repro/sat/solver.py")
        assert report.ok

    def test_ri004_bare_except(self):
        report = run("try:\n    x = 1\nexcept:\n    pass\n")
        assert "RI004" in report.codes()

    def test_ri004_typed_except_is_fine(self):
        report = run("try:\n    x = 1\nexcept ValueError:\n    pass\n")
        assert report.ok

    def test_ri005_mutating_method(self):
        report = run("circuit.rewire_pin(pin, net)\n")
        assert "RI005" in report.codes()

    def test_ri005_subscript_assignment(self):
        report = run("circuit.gates['g'].fanins[0] = 'other'\n")
        assert "RI005" in report.codes()

    def test_ri005_allowed_in_eco(self):
        report = run("circuit.rewire_pin(pin, net)\n",
                     module="repro/eco/validate.py")
        assert report.ok

    def test_ri006_library_print(self):
        report = run("print('hello')\n")
        assert "RI006" in report.codes()

    def test_ri006_cli_may_print(self):
        report = run("print('hello')\n", module="repro/cli.py")
        assert report.ok

    def test_ri007_numpy_import(self):
        report = run("import numpy as np\n")
        assert "RI007" in report.codes()

    def test_ri007_from_numpy_import(self):
        report = run("from numpy import uint64\n")
        assert "RI007" in report.codes()

    def test_ri007_numpy_submodule_import(self):
        report = run("import numpy.linalg\n")
        assert "RI007" in report.codes()

    def test_ri007_relative_import_is_fine(self):
        # `from .numpy import x` is a local module, not the library
        report = run("from .numpy import helper\n")
        assert report.ok

    def test_diagnostics_carry_file_location(self):
        report = run("import time\nx = time.time()\n",
                     module="repro/eco/engine.py")
        [diag] = report.errors
        assert diag.where.startswith("repro/eco/engine.py:2:")


class TestRealTree:
    def test_repro_sources_are_clean(self):
        """Acceptance: `repro lint --self` passes on the actual tree
        with the custom AST rules active."""
        report = lint_sources()
        assert report.ok, report.render_text()

    def test_at_least_four_rules_exist(self):
        # the custom rule surface the CI gate relies on
        snippets = {
            "RI001": "import time\nt = time.time()\n",
            "RI002": "import random\nrandom.seed(1)\n",
            "RI003": "s.solve()\n",
            "RI004": "try:\n    pass\nexcept:\n    pass\n",
            "RI005": "c.remove_gate('g')\n",
            "RI006": "print(1)\n",
            "RI007": "import numpy\n",
        }
        fired = {code for code, text in snippets.items()
                 if code in run(text).codes()}
        assert len(fired) >= 4
        assert fired == set(snippets)
