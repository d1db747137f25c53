import pytest

from treelat.cli import analyze_document, main
from treelat.mozes import generate_mozes_complex

import _complexes


@pytest.fixture()
def runner(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture(scope="session")
def mozes513_doc():
    return generate_mozes_complex(5, 13)


@pytest.fixture(scope="session")
def mozes517_doc():
    return generate_mozes_complex(5, 17)


@pytest.fixture(scope="session")
def mozes513(mozes513_doc):
    _, analysis = analyze_document(mozes513_doc)
    assert analysis is not None
    return analysis


@pytest.fixture(scope="session")
def mozes517(mozes517_doc):
    _, analysis = analyze_document(mozes517_doc)
    assert analysis is not None
    return analysis


@pytest.fixture(scope="session")
def torus():
    _, analysis = analyze_document(_complexes.torus_doc())
    assert analysis is not None
    return analysis


@pytest.fixture(scope="session")
def f2xf2():
    _, analysis = analyze_document(_complexes.f2xf2_doc())
    assert analysis is not None
    return analysis


@pytest.fixture(scope="session")
def klein():
    _, analysis = analyze_document(_complexes.klein_doc())
    assert analysis is not None
    return analysis


@pytest.fixture(scope="session")
def corpus(torus, f2xf2, klein, mozes513, mozes517):
    return {
        "torus": torus,
        "f2xf2": f2xf2,
        "klein": klein,
        "mozes513": mozes513,
        "mozes517": mozes517,
    }
