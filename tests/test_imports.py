"""The package loads each submodule on first use: what a fresh interpreter
has imported after `import certalg`, a builder call and a CLI command,
including the stdlib modules the CLI must not pull in; the names the
package exports."""

import os
import subprocess
import sys
from pathlib import Path

import certalg

SRC = Path(__file__).resolve().parent.parent / "src"
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
    assert _loaded("import certalg.kernel") == {"errors", "structures", "kernel"}


# each name the kernel took over, by the modules that held it before
KERNEL_NAMES = {
    "euclid": ("BezoutCertificate", "DividesWitness", "FactorEntry", "PrattCertificate",
               "PrimalityCert", "certified_product", "check_divides", "verify_bezout",
               "verify_primality"),
    "primes": ("FactorEntry", "PrattCertificate", "PrimalityCert", "TRIAL_BOUND",
               "_miller_rabin", "_verify_pratt", "certified_product", "verify_primality"),
    "factorization": ("FactorizationData", "check_factorization"),
    "certlists": ("SortResult", "verify_sort_result"),
}


def test_moved_names_are_still_reachable_from_their_old_modules():
    import importlib

    from certalg import euclid, kernel, laws, primes, structures

    for name in ("check_laws", "recheck_failure", "LawReport"):
        assert getattr(structures, name) is getattr(laws, name), name
    for name in ("is_prime", "certified_factors", "prime_split"):
        assert getattr(euclid, name) is getattr(primes, name), name
    for module, names in KERNEL_NAMES.items():
        old = importlib.import_module(f"certalg.{module}")
        for name in names:
            assert getattr(old, name) is getattr(kernel, name), (module, name)
    for module in (structures, euclid):
        assert not hasattr(module, "no_such_name")


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
