import legendre_curves


def test_every_exported_name_resolves_once():
    names = legendre_curves.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(legendre_curves, name)]
    assert missing == []
