"""Round-trip and erasure-recovery tests for every erasure code."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure import MirrorCode, ReedSolomonCode, RowDiagonalParityCode
from repro.erasure.base import pad_block
from repro.exceptions import DecodingError

CODES = [
    MirrorCode(2),
    MirrorCode(3),
    ReedSolomonCode(2, 1),
    ReedSolomonCode(4, 1),  # RAID-4/5 tolerance: one lost share
    ReedSolomonCode(4, 2),
    ReedSolomonCode(6, 3),
    RowDiagonalParityCode(3),
    RowDiagonalParityCode(5),
    RowDiagonalParityCode(7),
]

PAYLOAD = bytes(range(256)) * 3


def padded_for(code, payload):
    if code.name == "mirror":
        return payload
    if code.name == "reed-solomon":
        return pad_block(payload, code.data_shares)
    p = code.prime
    return pad_block(payload, (p - 1) * (p - 1))


@pytest.mark.parametrize("code", CODES, ids=lambda code: code.describe())
class TestRoundTrip:
    def test_all_shares_decode(self, code):
        shares = code.encode(PAYLOAD)
        assert len(shares) == code.total_shares
        full = {position: share for position, share in enumerate(shares)}
        assert code.decode(full) == padded_for(code, PAYLOAD)

    def test_single_erasures(self, code):
        shares = dict(enumerate(code.encode(PAYLOAD)))
        expected = padded_for(code, PAYLOAD)
        for lost in range(code.total_shares):
            survivors = {k: v for k, v in shares.items() if k != lost}
            assert code.decode(survivors) == expected, f"lost share {lost}"

    def test_all_tolerated_erasure_patterns(self, code):
        shares = dict(enumerate(code.encode(PAYLOAD)))
        expected = padded_for(code, PAYLOAD)
        for lost in itertools.combinations(
            range(code.total_shares), code.tolerance
        ):
            survivors = {
                k: v for k, v in shares.items() if k not in set(lost)
            }
            assert code.decode(survivors) == expected, f"lost shares {lost}"

    def test_too_many_erasures_raise(self, code):
        shares = dict(enumerate(code.encode(PAYLOAD)))
        keep = sorted(shares)[: code.data_shares - 1]
        survivors = {k: shares[k] for k in keep}
        with pytest.raises(DecodingError):
            code.decode(survivors)

    def test_overhead_accounting(self, code):
        assert code.storage_overhead == pytest.approx(
            code.total_shares / code.data_shares
        )
        assert code.tolerance == code.total_shares - code.data_shares

    def test_empty_block(self, code):
        shares = code.encode(b"")
        decoded = code.decode(dict(enumerate(shares)))
        assert decoded == b""


class TestMirrorSpecifics:
    def test_detects_divergent_copies(self):
        code = MirrorCode(2)
        with pytest.raises(DecodingError):
            code.decode({0: b"aaa", 1: b"bbb"})

    def test_invalid_copies(self):
        with pytest.raises(ValueError):
            MirrorCode(0)


class TestReedSolomonSpecifics:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(0, 2)
        with pytest.raises(ValueError):
            ReedSolomonCode(200, 100)

    def test_mismatched_share_lengths(self):
        code = ReedSolomonCode(2, 1)
        shares = dict(enumerate(code.encode(b"abcdef")))
        shares[0] = shares[0] + b"x"
        with pytest.raises(DecodingError):
            code.decode(shares)

    def test_single_parity_validation(self):
        # RS(m+1) is the single-parity (RAID-4/5) configuration.
        with pytest.raises(ValueError):
            ReedSolomonCode(0, 1)

    def test_single_parity_mismatched_lengths_rejected(self):
        # A degraded read must refuse mismatched shares too: drop a data
        # share so decoding goes through the parity share.
        code = ReedSolomonCode(4, 1)
        shares = dict(enumerate(code.encode(bytes(range(40)))))
        del shares[0]
        shares[4] = shares[4] + b"!"
        with pytest.raises(DecodingError):
            code.decode(shares)

    def test_share_position_out_of_range(self):
        code = ReedSolomonCode(2, 1)
        shares = dict(enumerate(code.encode(b"abcdef")))
        shares[9] = shares.pop(2)
        with pytest.raises(DecodingError):
            code.decode(shares)

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_property_round_trip(self, payload):
        code = ReedSolomonCode(3, 2)
        shares = dict(enumerate(code.encode(payload)))
        decoded = code.decode({k: shares[k] for k in (1, 3, 4)})
        assert decoded[: len(payload)] == payload


class TestParityCodesSpecifics:
    def test_rdp_requires_prime(self):
        with pytest.raises(ValueError):
            RowDiagonalParityCode(9)

    @given(st.binary(min_size=1, max_size=120), st.sampled_from([3, 5, 7]))
    @settings(max_examples=40, deadline=None)
    def test_rdp_property_double_erasure(self, payload, prime):
        code = RowDiagonalParityCode(prime)
        shares = dict(enumerate(code.encode(payload)))
        lost = (0, code.total_shares - 1)
        survivors = {k: v for k, v in shares.items() if k not in lost}
        decoded = code.decode(survivors)
        assert decoded[: len(payload)] == payload
