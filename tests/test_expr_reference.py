"""``chowcalc.expr`` against the hand-written tokenizer and parser it replaced
(``_ref_expr``): the same syntax tree, or the same ``ParseError`` message,
position and expected set.

The one difference is a digit that is not a decimal digit, like '²' or '①'.
The reference read it as part of a number and handed it to ``int()``, which
raised ``ValueError`` (or its parser failed first on an earlier token); the
scanner reports it as an unexpected character where it stands.
"""
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _ref_expr
from chowcalc.expr import ParseError, parse, tokenize

EVERY_CHARACTER = "".join(map(chr, range(sys.maxunicode + 1)))
NON_DECIMAL_DIGITS = [c for c in EVERY_CHARACTER if c.isdigit() and not c.isdecimal()]


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except ParseError as exc:
        return str(exc), exc.position, exc.expected


def _stopped_at_non_decimal_digit(text, got):
    """True when the scanner rejected a non-decimal digit that the reference
    scanned as (part of) a number token."""
    if not isinstance(got, tuple):
        return False
    pos = got[1]
    c = text[pos : pos + 1]
    if c not in NON_DECIMAL_DIGITS or got[0] != f"unexpected character {c!r} at position {pos}":
        return False
    last = _ref_expr.tokenize(text[: pos + 1])[-1]
    assert last.kind == "number" and last.pos + len(last.text) == pos + 1
    return True


def _keep_literals(text, starts=None):
    """Parse alone every piece of `text` from a 'ring' to a ')', so that each
    ring literal in it that parses is kept in the parser's memo; with
    `starts`, only the pieces from those occurrences of 'ring' (by index)."""
    for k, m in enumerate(re.finditer("ring", text)):
        if starts is not None and k not in starts:
            continue
        for end in range(m.start(), len(text)):
            if text[end] == ")":
                try:
                    parse(text[m.start() : end + 1])
                except ParseError:
                    pass


def _agrees(text):
    got = _outcome(parse, text)
    if not _stopped_at_non_decimal_digit(text, got):
        assert got == _outcome(_ref_expr.parse, text)


def assert_agrees(text):
    """Parsed cold, again (the statement comes from the parser's memo if it
    parsed), and cold once more after every ring literal in it was kept, so
    that each stands as one token: each parse reads as the reference does."""
    parse.cache_clear()
    _agrees(text)
    _agrees(text)
    parse.cache_clear()
    _keep_literals(text)
    _agrees(text)


# -- random text from grammar fragments -------------------------------------------

FRAGMENTS = (
    "ring[", "bundle(", "F[", "sym(", "x", "k1", "_a", "y2", "0", "12", "=",
    "+", "-", "*", "/", "^", "(", ")", "[", "]", ",", ";",
    " ", "  ", "\t", "\xa0", "é", "٣", "½", "Ⅷ", "²", "①", "$",
)

EXPRESSIONS = st.recursive(
    st.sampled_from(["x", "k1", "_a", "é", "xé٣", "0", "12", "٣٣", "F[2]", "a = x"]),
    lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*/^"), inner),
        st.builds("-{}".format, inner),
        st.builds("({})".format, inner),
        st.builds("sym({}, {})".format, inner, inner),
        st.builds("[{}, {}]".format, inner, inner),
        st.builds("ring[x, y; 1, 2]({}, {})".format, inner, inner),
        st.builds("bundle({}; {})".format, inner, inner),
    ),
    max_leaves=10,
)


@st.composite
def texts(draw):
    """Text from the grammar, with up to three runs of fragments spliced in,
    or fragments alone."""
    text = draw(st.one_of(EXPRESSIONS, st.just("")))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + "".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=4))) + text[i:]
    return text


@settings(max_examples=500)
@given(texts())
def test_parse_agrees_with_the_reference(text):
    assert_agrees(text)


# Grammar text where ring literals are common, nested ones too.
WITH_LITERALS = st.recursive(
    st.sampled_from(["x", "k1", "12", "ring[x; 1](x)"]),
    lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*^"), inner),
        st.builds("hilbert({}, {})".format, inner, inner),
        st.builds("ring[x, y; 1, 2]({}, {})".format, inner, inner),
        st.builds("ring [y ;2] ( {} )".format, inner),
    ),
    max_leaves=8,
).flatmap(lambda text: st.sampled_from([text, f"a = {text}", f"{text} ]"]))


@settings(max_examples=300)
@given(WITH_LITERALS, st.sets(st.integers(0, 7)))
def test_parse_agrees_with_the_reference_when_some_literals_are_kept(text, starts):
    """The literals from the chosen occurrences of 'ring' are kept first, so
    they stand as one token each, whether nested in another or not."""
    parse.cache_clear()
    _keep_literals(text, starts)
    _agrees(text)


# -- every error form -------------------------------------------------------------

ERRORS = {
    "": "unexpected end of input at position 0 (expected one of: number, identifier, ()",
    "k1 +": "unexpected end of input at position 4 (expected one of: number, identifier, ()",
    "a =": "unexpected end of input at position 3 (expected one of: number, identifier, ()",
    "k1 * )": "unexpected token ')' at position 5 (expected one of: number, identifier, (, [)",
    "= 1": "unexpected token '=' at position 0 (expected one of: number, identifier, (, [)",
    "(k1 + 1": "unexpected end of input at position 7 (expected one of: ))",
    "(k1 + 1]": "unexpected token ']' at position 7 (expected one of: ))",
    "[1, 2": "unexpected end of input at position 5 (expected one of: ])",
    "[1, 2)": "unexpected token ')' at position 5 (expected one of: ])",
    "F[1": "unexpected end of input at position 3 (expected one of: ])",
    "ring[": "unexpected end of input at position 5 (expected one of: ident)",
    "ring[1; 1](x)": "unexpected token '1' at position 5 (expected one of: ident)",
    "ring[x; y](x)": "unexpected token 'y' at position 8 (expected one of: number)",
    "ring[x 1](x)": "unexpected token '1' at position 7 (expected one of: ;)",
    "ring[x; 1 x": "unexpected token 'x' at position 10 (expected one of: ])",
    "ring[x; 1] x": "unexpected token 'x' at position 11 (expected one of: ()",
    "ring[x; 1](x": "unexpected end of input at position 12 (expected one of: ))",
    "bundle(2, k1)": "unexpected token ',' at position 8 (expected one of: ;)",
    "bundle(2; k1": "unexpected end of input at position 12 (expected one of: ))",
    "k1 k2": "trailing input 'k2' at position 3",
    "a = b = c": "trailing input '=' at position 6",
    "ring[x, y; 1](x)": "variable and weight counts differ at position 16",
    "ring[x; 1, 2](x) + 1": "variable and weight counts differ at position 17",
    "ring[ring[x; 1](x); 1](x)": "unexpected token '[' at position 9 (expected one of: ;)",
    "hilbert(ring[x; 1](x) ring[x; 1](x))": "unexpected token 'ring' at position 22 (expected one of: ))",
    "k1 $ 2": "unexpected character '$' at position 3",
    "k1 + ½": "unexpected character '½' at position 5",
    "Ⅷx": "unexpected character 'Ⅷ' at position 0",
}


@pytest.mark.parametrize("text", sorted(ERRORS))
def test_each_error_form_matches_the_reference(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == ERRORS[text]
    assert_agrees(text)


def test_tokens_are_kind_text_position_tuples_ending_in_a_sentinel():
    assert tokenize(" x٣ +\xa012*(é_1)") == [
        ("ident", "x٣", 1),
        ("+", "+", 4),
        ("number", "12", 6),
        ("*", "*", 8),
        ("(", "(", 9),
        ("ident", "é_1", 10),
        (")", ")", 13),
        ("end", "", 14),
    ]


# -- every code point -------------------------------------------------------------


def test_scanner_classes_are_the_reference_predicates_on_every_code_point():
    for pattern, predicate in (
        (r"\s", str.isspace),
        (r"\d", str.isdecimal),
        (r"\w", lambda c: c.isalnum() or c == "_"),
        (r"[^\W\d]", lambda c: c.isalnum() and not c.isdecimal() or c == "_"),
    ):
        assert re.findall(pattern, EVERY_CHARACTER) == list(filter(predicate, EVERY_CHARACTER))


def test_non_decimal_digits_are_unexpected_characters():
    assert "²" in NON_DECIMAL_DIGITS and "①" in NON_DECIMAL_DIGITS
    for c in NON_DECIMAL_DIGITS:
        with pytest.raises(ParseError) as err:
            parse(f"k1 + {c}")
        assert str(err.value) == f"unexpected character {c!r} at position 5"
        with pytest.raises(ValueError, match="^invalid literal for int"):
            _ref_expr.parse(f"k1 + {c}")
