"""Every public function, class and class member of the package has a
caller in it.

A module-level public function or class counts as used when some other
top-level statement of src/cryodrum names it, as a name, an attribute or an
imported name.  The exceptions are the oracles below, public functions with
no caller in the package itself.  A public method or property of a public
class counts as read when another top-level statement names it, or another
member of its own class does; members have no exceptions.
"""

import ast
import functools
from collections import defaultdict
from pathlib import Path

import cryodrum

SRC = Path(cryodrum.__file__).resolve().parent

#: public functions without a caller in the package: closed-form laws the
#: tests check numerical paths against (component_fluxes,
#: initial_slope_delta, probe_free_occupations, predict_added_noise), the
#: writers that the round-trip tests pair with the readers behind
#: load_dataset (write_spectrum, write_sweep), the Voigt area fit that
#: integrate_peak sends under-resolved lines to (fit_peak), and the
#: sample-level state estimator that the thermalization run's Wishart
#: moment draw is checked against (estimate_state)
ORACLES = ("component_fluxes", "initial_slope_delta", "probe_free_occupations",
           "predict_added_noise", "write_spectrum", "write_sweep", "fit_peak",
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


@functools.cache
def _surface():
    """(definitions, references): public top-level definitions as
    (module, statement, place), and for each name the places that mention
    it, a place being (module, statement index)."""
    definitions, references = [], defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for index, stmt in enumerate(tree.body):
            place = (path.name, index)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                definitions.append((path.name, stmt, place))
            for name in _names(stmt):
                references[name].add(place)
    return definitions, references


def test_public_definitions_have_callers():
    definitions, references = _surface()
    unused = [f"{module}:{stmt.name}" for module, stmt, place in definitions
              if stmt.name not in ORACLES
              and not references[stmt.name] - {place}]
    assert unused == []


def test_public_members_have_readers():
    definitions, references = _surface()
    unread = []
    for module, cls, place in definitions:
        if not isinstance(cls, ast.ClassDef):
            continue
        for member in cls.body:
            if not isinstance(member, ast.FunctionDef) \
                    or member.name.startswith("_"):
                continue
            siblings = {name for other in cls.body if other is not member
                        for name in _names(other)}
            if member.name not in siblings \
                    and not references[member.name] - {place}:
                unread.append(f"{module}:{cls.name}.{member.name}")
    assert unread == []


def test_oracles_exist_and_have_no_caller():
    definitions, references = _surface()
    places = {stmt.name: place for _, stmt, place in definitions}
    assert set(ORACLES) <= set(places)
    assert [name for name in ORACLES
            if references[name] - {places[name]}] == []
