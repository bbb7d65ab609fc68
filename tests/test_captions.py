"""Structured caption parsing: round trips, error taxonomy, totality."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, strategies as st

from gazekit import (
    EmptyField,
    InvalidCharacter,
    MissingField,
    OrderViolation,
    StructuredCaption,
    parse_caption,
    serialize_caption,
    write_manifest_rows,
)
from gazekit.cli import main

CANONICAL = (
    "Scene: wet urban road | Current: lead vehicle"
    " | Next: will check the crosswalk | Why: pedestrian approaching"
)

# Field text: printable, no pipe or newline, at least one non-space char.
field_text = st.text(
    st.characters(codec="ascii", exclude_characters="|\r\n", categories=("L", "N", "P", "Zs")),
    min_size=1,
    max_size=30,
).filter(lambda s: s.strip())


class TestParse:
    def test_canonical_example(self):
        cap = parse_caption(CANONICAL)
        assert cap.scene == "wet urban road"
        assert cap.current == "lead vehicle"
        assert cap.next == "will check the crosswalk"
        assert cap.why == "pedestrian approaching"

    def test_labels_are_case_insensitive(self):
        cap = parse_caption("SCENE: a | current: b | NeXt: c | WHY: d")
        assert (cap.scene, cap.current, cap.next, cap.why) == ("a", "b", "c", "d")

    def test_surrounding_whitespace_is_trimmed(self):
        cap = parse_caption("  Scene:  a  |Current:b| Next: c |  Why:  d  ")
        assert (cap.scene, cap.current, cap.next, cap.why) == ("a", "b", "c", "d")

    def test_missing_field(self):
        with pytest.raises(MissingField, match="next"):
            parse_caption("Scene: x | Current: y | Why: z")

    def test_out_of_order(self):
        with pytest.raises(OrderViolation):
            parse_caption("Current: y | Scene: x | Next: a | Why: z")

    def test_duplicated_field(self):
        with pytest.raises((OrderViolation, MissingField)):
            parse_caption("Scene: x | Scene: x2 | Current: y | Next: a | Why: z")

    def test_empty_field(self):
        with pytest.raises(EmptyField, match="current"):
            parse_caption("Scene: x | Current: | Next: a | Why: z")

    def test_unlabeled_junk(self):
        with pytest.raises(MissingField):
            parse_caption("just some prose with no labels")

    def test_empty_string(self):
        with pytest.raises(MissingField):
            parse_caption("")


class TestSerialize:
    def test_canonical_form(self):
        cap = StructuredCaption("a", "b", "c", "d")
        assert serialize_caption(cap) == "Scene: a | Current: b | Next: c | Why: d"

    def test_round_trip_from_text(self):
        assert serialize_caption(parse_caption(CANONICAL)) == CANONICAL

    @given(scene=field_text, current=field_text, next_=field_text, why=field_text)
    def test_round_trip_from_fields(self, scene, current, next_, why):
        cap = StructuredCaption(scene, current, next_, why)
        back = parse_caption(serialize_caption(cap))
        assert back == cap

    def test_construction_rejects_reserved_characters(self):
        with pytest.raises(InvalidCharacter):
            StructuredCaption("a|b", "c", "d", "e")
        with pytest.raises(InvalidCharacter):
            StructuredCaption("a", "c\nd", "d", "e")
        with pytest.raises(EmptyField):
            StructuredCaption("a", "   ", "d", "e")


class TestTotality:
    @given(text=st.text(max_size=120))
    def test_parse_returns_caption_or_raises_caption_error(self, text):
        try:
            cap = parse_caption(text)
        except (MissingField, OrderViolation, EmptyField, InvalidCharacter):
            return
        # Success must mean a fully populated caption that round-trips.
        assert all(getattr(cap, name) for name in ("scene", "current", "next", "why"))
        assert parse_caption(serialize_caption(cap)) == cap


class TestManifestValidation:
    """The manifest caption check, which review runs on every row it shows."""

    @staticmethod
    def review(tmp_path, monkeypatch, captions):
        row = {"video_id": "v", "anchor": "4", "target": "8", "delta": "4",
               "anchor_peak_kl": "1.5", "pair_kl": "2.5"}
        manifest = tmp_path / "pairs.csv"
        write_manifest_rows(manifest, [dict(row, caption=c) for c in captions])
        monkeypatch.setattr("sys.stdin", io.StringIO("r\n" * len(captions)))
        assert main(["review", str(manifest), "--out", str(tmp_path / "out.csv")]) == 0
        return (tmp_path / "out.csv").read_text(encoding="utf-8")

    def test_mixed_rows(self, tmp_path, monkeypatch, capsys):
        self.review(tmp_path, monkeypatch, [CANONICAL, "", "Scene: x | Current: y | Why: z"])
        shown = capsys.readouterr().out.split("row ")[1:]
        assert [block.startswith(f"{i}/3") for i, block in enumerate(shown, 1)] == [True] * 3
        assert "caption: (empty)" in shown[1]  # no caption yet is not an error
        flagged = ["caption does not parse" in block for block in shown]
        assert flagged == [False, False, True]
        assert "(MissingField: " in shown[2]

    def test_valid_plus_invalid_is_total(self, tmp_path, monkeypatch, capsys):
        captions = [CANONICAL, "broken", "", "Scene: a | Current: b | Next: c | Why: d"]
        written = self.review(tmp_path, monkeypatch, captions)
        out = capsys.readouterr().out
        assert out.count("caption does not parse") == 1
        assert out.endswith("4 rows decided\n")
        assert len(written.splitlines()) == 1 + len(captions)

    def test_empty_manifest(self, tmp_path, monkeypatch, capsys):
        written = self.review(tmp_path, monkeypatch, [])
        assert capsys.readouterr().out == "0 rows decided\n"
        assert written.splitlines() == [
            "video_id,anchor,target,delta,anchor_peak_kl,pair_kl,"
            "anchor_map_path,target_map_path,caption,decision"
        ]
