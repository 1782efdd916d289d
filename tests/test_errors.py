import ast
import pathlib
import pickle

import pytest

import mapchain
from mapchain import errors

ERROR_CLASSES = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.MapchainError)),
    key=lambda cls: cls.__name__,
)

# constructor arguments of the classes that take more than a message
ARGUMENTS = {
    errors.DisconnectedGraph: ([[3, 1], [2]],),
    errors.MissingColumn: ("population",),
    errors.ZeroVotesDistrict: (2, "PRES"),
    errors.UnknownContest: ("GOV", ("SEN", "PRES")),
}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_pickle_round_trip(cls):
    error = cls(*ARGUMENTS.get(cls, ("something went wrong",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)


def test_no_assert_statement_in_the_package():
    # invariant checks raise errors, so that they still run under python -O,
    # which strips every assert statement
    modules = sorted(pathlib.Path(mapchain.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
