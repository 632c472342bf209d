"""Every public function and class of the package has a caller in it.

A module-level public function or class counts as used when some other
top-level statement of src/cryodrum names it, as a name, an attribute or an
imported name.  The exceptions are the oracles below, public functions with
no caller in the package itself.
"""

import ast
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


def _surface():
    """(definitions, references): public top-level definitions as
    (module, name, place), and for each name the places that mention it,
    a place being (module, statement index)."""
    definitions, references = [], defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for index, stmt in enumerate(tree.body):
            place = (path.name, index)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                definitions.append((path.name, stmt.name, place))
            for name in _names(stmt):
                references[name].add(place)
    return definitions, references


def test_public_definitions_have_callers():
    definitions, references = _surface()
    unused = [f"{module}:{name}" for module, name, place in definitions
              if name not in ORACLES and not references[name] - {place}]
    assert unused == []


def test_oracles_exist_and_have_no_caller():
    definitions, references = _surface()
    places = {name: place for _, name, place in definitions}
    assert set(ORACLES) <= set(places)
    assert [name for name in ORACLES
            if references[name] - {places[name]}] == []
