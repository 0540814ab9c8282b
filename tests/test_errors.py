"""Package errors cross process boundaries (pool workers send them to the
caller): each pickles back to its type, message and attributes."""

import pickle

import pytest

from dynrmst import errors


def _subclasses(cls):
    return {cls}.union(*(_subclasses(sub) for sub in cls.__subclasses__()))


# constructor arguments of the errors that take more than a message
ARGUMENTS = {
    errors.MissingCovariate: ("s-17", "marker", 2.5),
    errors.NoConvergence: (200, 1e-3),
}


@pytest.mark.parametrize("cls", sorted(_subclasses(errors.DynRmstError),
                                       key=lambda cls: cls.__name__))
def test_every_error_round_trips_through_pickle(cls):
    exc = cls(*ARGUMENTS.get(cls, ("a message",)))
    exc.extra = "a value"
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))
