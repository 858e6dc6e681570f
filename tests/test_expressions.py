"""Expression grammar: literals, variable, arithmetic, functions, errors."""

import math

import pytest

from meridian4 import expressions
from meridian4.errors import ExpressionError
from meridian4.expressions import compile_expression
from meridian4.jets import variable


def value(text, t, var="u"):
    return compile_expression(text, var)(variable(t)).f


def test_literals_and_precedence():
    assert value("2+3*4^2", 0.0) == pytest.approx(50.0)
    assert value("(2+3)*4", 0.0) == pytest.approx(20.0)
    assert value("2^3^2", 0.0) == pytest.approx(512.0)  # right-associative
    assert value("-u^2", 3.0) == pytest.approx(-9.0)
    assert value("10-4-3", 0.0) == pytest.approx(3.0)
    assert value("8/4/2", 0.0) == pytest.approx(1.0)


def test_variable_symbol_is_configurable():
    assert value("v+1", 2.0, var="v") == pytest.approx(3.0)
    with pytest.raises(ExpressionError):
        compile_expression("u+1", "v")


def test_function_set():
    t = 0.7
    cases = {
        "sin(u)": math.sin(t),
        "cos(u)": math.cos(t),
        "tan(u)": math.tan(t),
        "sec(u)": 1.0 / math.cos(t),
        "sinh(u)": math.sinh(t),
        "cosh(u)": math.cosh(t),
        "exp(u)": math.exp(t),
        "log(u)": math.log(t),
        "sqrt(u)": math.sqrt(t),
    }
    for text, expected in cases.items():
        assert value(text, t) == pytest.approx(expected, abs=1e-14)


def test_pythagorean_identity_with_derivatives():
    fn = compile_expression("sin(u)^2 + cos(u)^2")
    j = fn(variable(1.234))
    assert (j.f, j.d1, j.d2, j.d3) == pytest.approx((1.0, 0.0, 0.0, 0.0),
                                                    abs=1e-12)


def test_derivatives_of_cubic():
    j = compile_expression("u^3 - 2*u")(variable(2.0))
    assert (j.f, j.d1, j.d2, j.d3) == pytest.approx((4.0, 10.0, 12.0, 6.0))


def test_unknown_function_is_named_in_error():
    with pytest.raises(ExpressionError, match="foo"):
        compile_expression("foo(u)")


def test_unbalanced_parenthesis_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("sin(u")


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("1 + 2 )")


def test_bad_character_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("u @ 2")


@pytest.mark.parametrize("text", [
    "-" * 49 + "u", "sin(" * 49 + "u" + ")" * 49, "+".join(["u"] * 50),
    "u^" * 49 + "u"], ids=["minus", "sin", "sum", "power"])
def test_fifty_deep_expression_compiles(text):
    fn = compile_expression(text)
    assert fn(0.5) == fn(variable(0.5)).f


def test_nesting_is_bounded():
    depth = expressions.MAX_DEPTH
    compile_expression("-" * (depth - 1) + "u")
    with pytest.raises(ExpressionError, match=f"deeper than {depth}"):
        compile_expression("-" * depth + "u")


# --- the grammar's boundary ----------------------------------------------------

@pytest.mark.parametrize("text", [
    "u**2", "u//2", "u%2", "u @ 2", "0x10", "1_0", "1j", "True", "sin", "u(1)",
    "sin(u,u)", "sin(u=1)", "u<1", "[u]", "u.real", "'u'", "\uff55+1", "",
    "1 2", "u)+(u", "sin(u,)", "u # comment", "u if u else u", "-u^2 and u",
    "sin(*u)", "\\u"])
def test_text_outside_the_grammar_is_rejected(text):
    with pytest.raises(ExpressionError):
        compile_expression(text)


def test_rejected_text_shows_no_parser_warning(recwarn):
    # Python's tokenizer warns about a literal run into a keyword, as in "1if"
    with pytest.raises(ExpressionError, match="unsupported syntax"):
        compile_expression("1if u else u")
    assert not recwarn.list


# f, d1, d2, d3 at u = 0.3, 0.7 and 1.9 of accepted expressions, as computed by
# the module's earlier recursive-descent parser and tree interpreter; compared
# by repr, so signed zeros count.
JETS = {
    "2^3^2": [
        (512.0, 0.0, 0.0, 0.0),
        (512.0, 0.0, 0.0, 0.0),
        (512.0, 0.0, 0.0, 0.0),
    ],
    "-u^2": [
        (-0.09, -0.6, -2.0, -0.0),
        (-0.48999999999999994, -1.4, -2.0, -0.0),
        (-3.61, -3.8, -2.0, -0.0),
    ],
    "2^-u": [
        (0.8122523963562356, -0.5630104584373838, 0.39024911189163486, -0.2705000716237093),
        (0.6155722066724582, -0.4266821394860783, 0.2957535219800605, -0.20500071990115273),
        (0.2679433656340733, -0.18572418843900043, 0.12873419757827714, -0.08923174609302974),
    ],
    "8/4/2": [
        (1.0, 0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, 0.0),
    ],
    "u^u": [
        (0.696845301935949, -0.1421374904172292, 2.3518098556400835, -9.170014098010572),
        (0.779055912670449, 0.5011861886935786, 1.4353626510390707, 0.7654552712144105),
        (3.3855703439184803, 5.5586118260725685, 10.908307556739224, 22.823186376631252),
    ],
    "u^0.5": [
        (0.5477225575051661, 0.9128709291752769, -1.5214515486254616, 7.607257743127308),
        (0.8366600265340756, 0.5976143046671969, -0.4268673604765692, 0.9147157724497912),
        (1.378404875209022, 0.36273812505500586, -0.0954574013302647, 0.07536110631336687),
    ],
    "sec(u)/tan(u)": [
        (3.383863361824123, -10.939110324426892, 74.1102029888924, -740.6126374760264),
        (1.5522703269571039, -1.8429202669324323, 5.928254395309602, -24.800655362666102),
        (1.0567472337911523, 0.36102221688623315, 1.303423140607312, 2.0579307177839787),
    ],
    "1.e5*u": [
        (30000.0, 100000.0, 0.0, 0.0),
        (70000.0, 100000.0, 0.0, 0.0),
        (190000.0, 100000.0, 0.0, 0.0),
    ],
    ".5+u": [
        (0.8, 1.0, 0.0, 0.0),
        (1.2, 1.0, 0.0, 0.0),
        (2.4, 1.0, 0.0, 0.0),
    ],
    " u + 1 ": [
        (1.3, 1.0, 0.0, 0.0),
        (1.7, 1.0, 0.0, 0.0),
        (2.9, 1.0, 0.0, 0.0),
    ],
    "+u--u": [
        (0.6, 2.0, 0.0, 0.0),
        (1.4, 2.0, 0.0, 0.0),
        (3.8, 2.0, 0.0, 0.0),
    ],
    "2*-u^-2": [
        (-22.222222222222225, 148.14814814814815, -1481.4814814814818, 19753.08641975309),
        (-4.081632653061225, 11.66180758017493, -49.979175343606855, 285.5952876777534),
        (-0.5540166204986149, 0.583175389998542, -0.9208032473661192, 1.9385331523497245),
    ],
    "sin(u)^2+cos(u)^2": [
        (1.0, 0.0, 0.0, 0.0),
        (1.0, 0.0, 5.551115123125783e-17, 0.0),
        (1.0, 0.0, 2.220446049250313e-16, 0.0),
    ],
    "exp(-u^2/2)/sqrt(2*3.14159)": [
        (0.3813879765328793, -0.1144163929598638, -0.3470630586449202, 0.33295170351320363),
        (0.31225406524165195, -0.21857784566915636, -0.15924957327324252, 0.5486303926295825),
        (0.06561584248634801, -0.12467010072406122, 0.17125734888936833, -0.07604876144167726),
    ],
    "log(1+u)*sinh(u)-cosh(u)": [
        (-0.9654432713231764, 0.20398555650654093, 0.4625803045868202, -0.9059375324133172),
        (-0.8526430626395645, 0.3536701393702888, 0.3615406457707029, 0.25198466646040885),
        (0.061916611393681986, 1.4976852735330017, 2.030368450493231, 2.8004267421225157),
    ],
    "(u+1)*(u-1)/(u^2+2)": [
        (-0.4354066985645933, 0.4120784780568211, 1.136994843761245, -2.162230424455104),
        (-0.20481927710843376, 0.6774084288963081, 0.20598190895871682, -1.9797488317286989),
        (0.46524064171123, 0.36222559028472845, -0.3000705471633505, 0.22236197788838188),
    ],
    "3E-2*u^3 - 2.5e+1": [
        (-24.99919, 0.0081, 0.05399999999999999, 0.18),
        (-24.98971, 0.04409999999999999, 0.12599999999999997, 0.18),
        (-24.79423, 0.32489999999999997, 0.34199999999999997, 0.18),
    ],
    "tan(sqrt(u))": [
        (0.6099760485882878, 1.2525235276971771, -0.692655358366635, 7.880953033324262),
        (1.1081631293262122, 1.3314999226315494, 0.8125112936842577, 2.713795500695101),
        (5.133446840949228, 9.921713482297388, 34.339406249868105, 181.91650129562967),
    ],
    "\tu\n*\n2": [
        (0.6, 2.0, 0.0, 0.0),
        (1.4, 2.0, 0.0, 0.0),
        (3.8, 2.0, 0.0, 0.0),
    ],
}


@pytest.mark.parametrize("text", sorted(JETS))
def test_accepted_expressions_keep_their_jets_bit_for_bit(text):
    fn = compile_expression(text)
    for t, want in zip((0.3, 0.7, 1.9), JETS[text]):
        j = fn(variable(t))
        assert list(map(repr, (j.f, j.d1, j.d2, j.d3))) == list(map(repr, want))
