"""The package loads each submodule on first use: what a fresh interpreter
has imported after `import certalg`, a builder call and a CLI command,
including the stdlib modules the CLI must not pull in; the names the
package exports."""

import os
import subprocess
import sys
from pathlib import Path

import certalg

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
OWN = {"errors", "structures", "numbers", "kernel", "euclid"}


def _modules(code, *flags):
    """Every module that a fresh interpreter, run with flags, has imported
    after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    report = "\nimport sys\nprint(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, *flags, "-c", code + report],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _loaded(code):
    """The certalg submodules that a fresh interpreter has imported after
    running code."""
    return {name[len("certalg."):] for name in _modules(code) if name.startswith("certalg.")}


def test_import_certalg_loads_no_submodule():
    assert _loaded("import certalg") == set()
    # the small-scope boxes' oracle stands apart from the verifiers it checks
    loaded = _modules(f"import sys\nsys.path.insert(0, {str(TESTS)!r})\nimport nt_oracles")
    assert "nt_oracles" in loaded
    assert not {name for name in loaded if name.partition(".")[0] == "certalg"}


def test_int_ring_loads_only_its_own_modules():
    assert _loaded("import certalg\ncertalg.int_ring()") == OWN


def test_cli_egcd_loads_none_of_the_other_structures():
    # what `python -m certalg.cli egcd 12 8` runs, with the cli as a module
    loaded = _loaded("from certalg.cli import main\nassert main(['egcd', '12', '8']) == 0")
    assert loaded == OWN | {"cli"}


def test_cli_frac_loads_the_term_language_and_fractions():
    loaded = _loaded("from certalg.cli import main\nassert main(['frac', '1/2']) == 0")
    assert loaded == OWN | {"cli", "eqprover", "fractions"}


def test_cli_prove_loads_the_term_language_and_no_structure():
    loaded = _loaded("from certalg.cli import main\n"
                     "assert main(['prove', '--theory', 'monoid', 'x=x']) == 0")
    assert loaded == OWN | {"cli", "eqprover"}


def test_the_law_engine_and_primality_load_only_where_used():
    assert _loaded("import certalg\ncertalg.check_laws(certalg.int_ring())") == OWN | {"laws"}
    assert _loaded("import certalg\ncertalg.is_prime(97)") == OWN | {"primes"}
    assert _loaded("import certalg\n"
                   "certalg.int_ring().ops['primality'](97)") == OWN | {"primes"}
    assert _loaded("from certalg.cli import main\n"
                   "assert main(['laws', 'int-ring']) == 0") == OWN | {"cli", "laws"}
    assert _loaded("from certalg.cli import main\n"
                   "assert main(['isprime', '97']) == 0") == OWN | {"cli", "primes"}


def test_the_kernel_loads_no_producer():
    assert _loaded("import certalg.kernel") == {"kernel"}
    # -S: no site, so nothing but the kernel's own imports can load these
    assert not _modules("import certalg.kernel", "-S") & {"enum", "random"}


# the old paths that perfbench reads, by module, each name with its owner;
# ROADMAP item 1 retires them
OLD_PATHS = {
    "structures": {"check_laws": "laws", "recheck_failure": "laws"},
    "euclid": {"is_prime": "primes", "verify_bezout": "kernel", "verify_primality": "kernel"},
    "certlists": {"verify_sort_result": "kernel"},
}


def test_the_only_old_paths_are_the_ones_perfbench_reads():
    import ast
    import importlib

    for module, names in OLD_PATHS.items():
        old = importlib.import_module(f"certalg.{module}")
        for name, owner in names.items():
            assert getattr(old, name) is getattr(importlib.import_module(f"certalg.{owner}"),
                                                 name), (module, name)
    # a name that a module imports from the package and never uses is an old path
    for path in sorted((SRC / "certalg").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used <= set(OLD_PATHS.get(path.stem, ())), path.name
    # the names that the two __getattr__s served before and serve no more
    from certalg import euclid, structures

    for module, name in ((structures, "LawReport"), (euclid, "certified_factors"),
                         (euclid, "prime_split"), (structures, "no_such_name"),
                         (euclid, "no_such_name")):
        assert not hasattr(module, name), (module.__name__, name)


def test_cli_paths_import_neither_dataclasses_nor_typing():
    # -S: no site, so no .pth file of the host can import these first
    loaded = _modules("from certalg.cli import main\n"
                      "assert main(['egcd', '12', '8']) == 0 and main(['frac', '1/2']) == 0",
                      "-S")
    assert {"certalg.cli", "certalg.fractions"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}


def test_every_export_is_its_defining_modules_object():
    import importlib

    for name in certalg.__all__:
        owner = importlib.import_module(f"certalg.{certalg._OWNER[name]}")
        assert getattr(certalg, name) is getattr(owner, name), name
        assert name in vars(certalg), name  # bound after the first lookup
    assert set(certalg.__all__) <= set(dir(certalg))
    assert set(certalg._EXPORTS) <= set(dir(certalg))
    assert certalg.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    try:
        certalg.no_such_name
    except AttributeError as e:
        assert "no_such_name" in str(e)
    else:
        raise AssertionError("certalg.no_such_name did not raise")
    assert not hasattr(certalg, "__no_such_dunder__")
