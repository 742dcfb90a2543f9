"""The package's public names: what ``__all__`` lists is importable."""
import votescale


def test_every_public_name_resolves():
    missing = [name for name in votescale.__all__ if not hasattr(votescale, name)]
    assert missing == []
    assert len(set(votescale.__all__)) == len(votescale.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from votescale import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(votescale.__all__)
