import pickle

import pytest

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
