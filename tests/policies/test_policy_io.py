"""Tests for policy file input/output."""

import pytest

from repro.exceptions import PolicyError
from repro.policies import (
    PrivacyPolicy,
    UtilityPolicy,
    load_privacy_policy,
    load_utility_policy,
    read_privacy_policy_text,
    read_utility_policy_text,
    save_privacy_policy,
    save_utility_policy,
    write_privacy_policy_text,
    write_utility_policy_text,
)


class TestPrivacyPolicyIo:
    def test_round_trip(self, tmp_path):
        policy = PrivacyPolicy([["a"], ["b", "c"]], k=7)
        path = save_privacy_policy(policy, tmp_path / "privacy.txt")
        loaded = load_privacy_policy(path)
        assert loaded.k == 7
        assert {c.items for c in loaded} == {c.items for c in policy}

    def test_text_format(self):
        policy = PrivacyPolicy([["b", "a"]], k=3)
        text = write_privacy_policy_text(policy)
        assert text.splitlines()[0] == "k=3"
        assert "a b" in text

    def test_missing_header_rejected(self):
        with pytest.raises(PolicyError):
            read_privacy_policy_text("a b\nc\n")

    def test_bad_k_rejected(self):
        with pytest.raises(PolicyError):
            read_privacy_policy_text("k=abc\na\n")

    def test_empty_file_rejected(self):
        with pytest.raises(PolicyError):
            read_privacy_policy_text("")
        with pytest.raises(PolicyError):
            read_privacy_policy_text("k=5\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(PolicyError):
            load_privacy_policy(tmp_path / "missing.txt")

    def test_load_skips_a_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "privacy.txt"
        path.write_bytes("k=4\na b\n".encode("utf-8-sig"))
        loaded = load_privacy_policy(path)
        assert loaded.k == 4
        assert {c.items for c in loaded} == {frozenset({"a", "b"})}

    def test_load_non_utf8_file_raises_a_policy_error_naming_the_file(
        self, tmp_path
    ):
        path = tmp_path / "latin1.txt"
        path.write_bytes("k=4\nZürich\n".encode("latin-1"))
        with pytest.raises(PolicyError, match="latin1.txt"):
            load_privacy_policy(path)


class TestUtilityPolicyIo:
    def test_round_trip(self, tmp_path):
        policy = UtilityPolicy([["a", "b"], ["c"]])
        path = save_utility_policy(policy, tmp_path / "utility.txt")
        loaded = load_utility_policy(path)
        assert {c.items for c in loaded} == {c.items for c in policy}

    def test_text_format(self):
        policy = UtilityPolicy([["b", "a"]])
        assert write_utility_policy_text(policy) == "a b\n"

    def test_empty_file_rejected(self):
        with pytest.raises(PolicyError):
            read_utility_policy_text("\n\n")

    def test_overlap_rejected_on_load(self):
        with pytest.raises(PolicyError):
            read_utility_policy_text("a b\nb c\n")

    def test_load_skips_a_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "utility.txt"
        path.write_bytes("a b\nc\n".encode("utf-8-sig"))
        loaded = load_utility_policy(path)
        assert {c.items for c in loaded} == {frozenset({"a", "b"}), frozenset({"c"})}

    def test_load_non_utf8_file_raises_a_policy_error_naming_the_file(
        self, tmp_path
    ):
        path = tmp_path / "latin1.txt"
        path.write_bytes("Zürich Genève\n".encode("latin-1"))
        with pytest.raises(PolicyError, match="latin1.txt"):
            load_utility_policy(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PolicyError):
            load_utility_policy(tmp_path / "missing.txt")
