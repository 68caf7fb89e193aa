import pytest
from hypothesis import given, settings

from multifam import ContractError, Family, KSet, Multiset, emit_family, parse_family
from multifam.family_io import ParseError

from conftest import family_and_t


def test_roundtrip_multiset():
    family = Family.of_multisets(
        4, 3, (Multiset.from_elements(4, e) for e in ((1, 1, 3), (2, 3, 4), (1, 2, 2)))
    )
    assert parse_family(emit_family(family)) == family


def test_roundtrip_set():
    family = Family.of_sets(5, 2, (KSet(5, e) for e in ((1, 3), (2, 5), (1, 2))))
    text = emit_family(family)
    assert text.splitlines()[0] == "m=5 k=2 kind=set"
    assert parse_family(text) == family


@settings(max_examples=300)
@given(family_and_t())
def test_every_emitted_family_parses_back(case):
    # the empty member (k = 0) has no line of its own, so a family holding
    # it is refused rather than written as a file that reads back empty
    family, _ = case
    if family.k == 0 and len(family):
        with pytest.raises(ContractError, match="empty member"):
            emit_family(family)
    else:
        assert parse_family(emit_family(family)) == family


def test_comments_and_blank_lines_skipped():
    text = "# header comment\n\nm=3 k=2 kind=multiset\n# member comment\n1 2\n\n2 3\n"
    family = parse_family(text)
    assert len(family) == 2


def test_duplicate_member_is_an_error_with_line_number():
    text = "m=3 k=2 kind=multiset\n1 2\n1 2\n"
    with pytest.raises(ParseError) as excinfo:
        parse_family(text)
    assert excinfo.value.line_no == 3


def test_header_errors():
    with pytest.raises(ParseError):
        parse_family("")
    with pytest.raises(ParseError):
        parse_family("m=3 k=2 kind=bag\n")
    with pytest.raises(ParseError):
        parse_family("k=2 m=3 kind=set\n")


def test_member_errors():
    with pytest.raises(ParseError):
        parse_family("m=3 k=2 kind=multiset\n1 2 3\n")  # wrong arity
    with pytest.raises(ParseError):
        parse_family("m=3 k=2 kind=multiset\n2 1\n")  # decreasing
    with pytest.raises(ParseError):
        parse_family("m=3 k=2 kind=set\n2 2\n")  # not strictly increasing
    with pytest.raises(ParseError):
        parse_family("m=3 k=2 kind=multiset\n1 4\n")  # out of range
    with pytest.raises(ParseError):
        parse_family("m=3 k=2 kind=multiset\n1 x\n")  # non-integer


def test_emitted_members_are_sorted_elements():
    family = Family.of_multisets(3, 3, [Multiset.from_elements(3, (3, 1, 1))])
    assert emit_family(family).splitlines()[1] == "1 1 3"
