"""The errors of the algebra layer keep their types and messages on the
integer polynomial arithmetic: a repeated root or a non-monic p, a
non-generator x or -b/a, and a non-unit a or element."""

import json
import re
from fractions import Fraction

import pytest

from cubicdescent.cli import main
from cubicdescent.descent import DescentInput, power_basis_form, radicand_report
from cubicdescent.errors import NonGeneratorError, NotEtaleError, ZeroDivisorError
from cubicdescent.etale import EtaleAlgebra
from cubicdescent.unipoly import UniPoly

SPLIT = EtaleAlgebra.from_roots([1, -1, 2, -2, 3])


def raises(kind, message):
    return pytest.raises(kind, match="^" + re.escape(message) + "$")


@pytest.mark.parametrize("p", [UniPoly.from_roots([1, 1, 2, 3, 4]),
                               UniPoly.from_roots([0, 0, 0, 5, Fraction(1, 2)]),
                               UniPoly([Fraction(1, 4), 1]) ** 2
                               * UniPoly([7, 0, 0, 1])])
def test_repeated_root_is_not_etale(p):
    with raises(NotEtaleError, "defining polynomial must be squarefree"):
        EtaleAlgebra(p)


@pytest.mark.parametrize("p", [UniPoly([Fraction(1, 2), 0, 0, 0, 3, 2]),
                               UniPoly([1, 0, 0, 0, Fraction(1, 3),
                                        Fraction(-1, 2)])])
def test_non_monic_p_is_not_etale(p):
    with raises(NotEtaleError, "defining polynomial must be monic"):
        EtaleAlgebra(p)


@pytest.mark.parametrize("x", [SPLIT.r ** 2, SPLIT.element(Fraction(5, 3)),
                               SPLIT.zero()])
def test_different_of_a_non_generator(x):
    # r^2 takes the values 1, 1, 4, 4, 9: its conjugates repeat
    with raises(NonGeneratorError, "different of a non-generator"):
        x.different()


def test_radicand_report_of_a_non_generating_m():
    inp = DescentInput(SPLIT, SPLIT.one(), -(SPLIT.r ** 2),
                       power_basis_form(SPLIT))
    with raises(NonGeneratorError, "-b/a does not generate the algebra"):
        radicand_report(inp)
    # p = T^5 + 1/4, m = r^5 = -1/4: the rational p takes the same path
    B = EtaleAlgebra(UniPoly([Fraction(1, 4), 0, 0, 0, 0, 1]))
    inp = DescentInput(B, B.one(), -(B.r ** 5), power_basis_form(B))
    with raises(NonGeneratorError, "-b/a does not generate the algebra"):
        radicand_report(inp)


def test_non_unit_a_is_a_zero_divisor():
    a = SPLIT.r - 2
    inp = DescentInput(SPLIT, a, SPLIT.r, power_basis_form(SPLIT))
    with raises(ZeroDivisorError, "a must be a unit to form -b/a"):
        radicand_report(inp)
    with raises(ZeroDivisorError, "element with gcd UniPoly(T - 2) against "
                                  "the modulus is not a unit"):
        a.inverse()
    half = SPLIT.r ** 2 - SPLIT.r * Fraction(1, 2) - Fraction(1, 2)
    with raises(ZeroDivisorError, "element with gcd UniPoly(T - 1) against "
                                  "the modulus is not a unit"):
        half.inverse()
    with raises(ZeroDivisorError, "element with gcd UniPoly(T^5 - 3*T^4 - "
                                  "5*T^3 + 15*T^2 + 4*T - 12) against the "
                                  "modulus is not a unit"):
        SPLIT.zero().inverse()


@pytest.mark.parametrize("config, code", [
    ({"p": ["-4", "8", "-5", "1", "0", "0"]}, 3),          # degree 3
    ({"p": ["0", "0", "0", "1", "-2", "1"]}, 3),           # T^3 (T - 1)^2
    ({"p": ["1", "0", "0", "0", "0", "1"], "x": ["1", "0", "0", "0", "0"]},
     6),                                                    # x = 1
])
def test_cli_exit_codes(tmp_path, capsys, config, code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["descend", "--input", str(path)]) == code
    assert f'"exit_code": {code}' in capsys.readouterr().err
