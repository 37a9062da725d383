import qaccredit


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition goes breaks
    # `from qaccredit import *`
    namespace = {}
    exec("from qaccredit import *", namespace)
    assert set(qaccredit.__all__) <= set(namespace)
    assert len(set(qaccredit.__all__)) == len(qaccredit.__all__)
