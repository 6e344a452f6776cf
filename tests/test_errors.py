import inspect
import pickle

import pytest

from geodp import errors

from conftest import StepError

# Constructor arguments of the errors that take more than a message.
ARGS = {
    StepError: (3, 17, 0.5, 0.25),
    errors.ConfigError: ("mc.n_paths", "must be >= 1"),
}

CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, errors.GeodpError)]


@pytest.mark.parametrize("cls", CLASSES + [StepError], ids=lambda c: c.__name__)
def test_every_error_survives_pickling(cls):
    """A forked worker's error reaches the parent through pickle: it comes
    back with its class, message and attributes.  StepError, defined with
    the tests, is a GeodpError subclass of four arguments."""
    e = cls(*ARGS.get(cls, ("norm 0 below 1e-12",)))
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is cls
    assert str(back) == str(e) and back.args == e.args
    assert vars(back) == vars(e)


def test_error_messages_and_attributes():
    e = errors.ConfigError("mc.n_paths", "must be >= 1")
    assert str(e) == "config field 'mc.n_paths': must be >= 1" and e.field == "mc.n_paths"
