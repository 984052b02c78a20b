import weylgraded


def test_public_names_resolve_once():
    names = weylgraded.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(weylgraded, name)]
    assert missing == []
