"""Every public function, class and class member of the package has a
caller in it, and the package grows no new defaulted inputs unseen.

A module-level public function or class counts as used when some other
top-level statement of src/cryodrum names it, as a name, an attribute or an
imported name.  The exceptions are the oracles below, public functions with
no caller in the package itself.  A public method or property of a public
class counts as read when another top-level statement reads it as an
attribute, or another member of its own class does; a local variable of the
same name is not a read.  Members have no exceptions.  No module keeps
process-global mutable state: no `global` or `nonlocal` statement and no
functools cache.
"""

import ast
import functools
from collections import defaultdict
from pathlib import Path

import cryodrum

SRC = Path(cryodrum.__file__).resolve().parent

#: public functions without a caller in the package: closed-form laws the
#: tests check numerical paths against (component_fluxes,
#: initial_slope_delta), the spectrum and batch readers and the writers that
#: the round-trip tests pair with the readers (read_spectrum,
#: read_quadratures, write_spectrum, write_sweep), the Voigt area fit that
#: integrate_peak sends under-resolved lines to (fit_peak), and the
#: sample-level state estimator that the thermalization run's Wishart
#: moment draw is checked against (estimate_state)
ORACLES = ("component_fluxes", "initial_slope_delta", "read_spectrum",
           "read_quadratures", "write_spectrum", "write_sweep", "fit_peak",
           "estimate_state")

def _names(node):
    """Names, attributes and imported names that a statement mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _attributes(node):
    """Attribute names that a statement reads."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)}


@functools.cache
def _surface():
    """(definitions, references, readers): public top-level definitions as
    (module, statement, place), for each name the places that mention it,
    and for each attribute name the places that read it, a place being
    (module, statement index)."""
    definitions = []
    references, readers = defaultdict(set), defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for index, stmt in enumerate(tree.body):
            place = (path.name, index)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                definitions.append((path.name, stmt, place))
            for name in _names(stmt):
                references[name].add(place)
            for name in _attributes(stmt):
                readers[name].add(place)
    return definitions, references, readers


def test_public_definitions_have_callers():
    definitions, references, _ = _surface()
    unused = [f"{module}:{stmt.name}" for module, stmt, place in definitions
              if stmt.name not in ORACLES
              and not references[stmt.name] - {place}]
    assert unused == []


def test_public_members_have_readers():
    definitions, _, readers = _surface()
    unread = []
    for module, cls, place in definitions:
        if not isinstance(cls, ast.ClassDef):
            continue
        for member in cls.body:
            if not isinstance(member, ast.FunctionDef) \
                    or member.name.startswith("_"):
                continue
            siblings = {name for other in cls.body if other is not member
                        for name in _attributes(other)}
            if member.name not in siblings \
                    and not readers[member.name] - {place}:
                unread.append(f"{module}:{cls.name}.{member.name}")
    assert unread == []


def test_oracles_exist_and_have_no_caller():
    definitions, references, _ = _surface()
    places = {stmt.name: place for _, stmt, place in definitions}
    assert set(ORACLES) <= set(places)
    assert [name for name in ORACLES
            if references[name] - {places[name]}] == []


#: defaulted parameters plus defaulted dataclass fields in src/cryodrum; a
#: change that adds one has to raise this number, where review sees it
MAX_DEFAULTS = 53


def _is_dataclass(cls):
    for decorator in cls.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name) and decorator.id == "dataclass":
            return True
    return False


def test_defaulted_inputs_do_not_grow():
    count = 0
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults) + sum(
                    default is not None for default in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(stmt, ast.AnnAssign)
                             and stmt.value is not None
                             for stmt in node.body)
    assert count <= MAX_DEFAULTS


#: functools decorators that keep results in process-global storage
CACHES = {"cache", "lru_cache", "cached_property"}


def test_no_process_global_state():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "functools"}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append(f"{path.name}:{node.lineno} "
                             f"{type(node).__name__.lower()}")
            elif isinstance(node, ast.ImportFrom) \
                    and node.module == "functools":
                found += [f"{path.name}:{node.lineno} functools.{alias.name}"
                          for alias in node.names if alias.name in CACHES]
            elif isinstance(node, ast.Attribute) and node.attr in CACHES \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                found.append(f"{path.name}:{node.lineno} "
                             f"functools.{node.attr}")
    assert found == []


#: error classes that an input outside its domain used to raise
RETIRED_ERRORS = {"NonPositiveRate", "NonPositiveFrequency"}


def test_inputs_outside_their_domain_raise_invalid_argument():
    # InvalidArgument is the one class for them, and the CLI maps it alone
    # to the usage-error exit: a bare ValueError escaped as a traceback
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append(f"{path.name}:{node.lineno} ValueError")
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if name in RETIRED_ERRORS:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
