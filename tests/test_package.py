import clocklab


def test_every_exported_name_resolves():
    # a name left in __all__ after its object is removed breaks
    # ``from clocklab import *``
    missing = [name for name in clocklab.__all__ if not hasattr(clocklab, name)]
    assert missing == []
    assert len(set(clocklab.__all__)) == len(clocklab.__all__)
