import hashlib
import io

import numpy as np
import pytest

from mricascade import (
    ComplexImage,
    InvalidParameterError,
    InvalidShapeError,
    Rng,
    complex_norm_sq,
    normal_draw,
)
from mricascade.tensorcore import load_tensor, read_tensor, save_tensor, write_tensor


class TestComplexImage:
    def test_rejects_wrong_channel_count(self):
        with pytest.raises(InvalidShapeError):
            ComplexImage(np.zeros((3, 4, 4), dtype=np.float32))

    @pytest.mark.parametrize("h,w", [(3, 4), (4, 5), (2, 4), (4, 2)])
    def test_rejects_odd_or_small_dims(self, h, w):
        with pytest.raises(InvalidShapeError):
            ComplexImage(np.zeros((2, h, w), dtype=np.float32))

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(InvalidParameterError, match="unsupported dtype int32"):
            ComplexImage(np.zeros((2, 4, 4), dtype=np.int32))

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 4)])
    def test_from_complex_rejects_non_2d(self, shape):
        with pytest.raises(InvalidShapeError, match="expected a 2-d complex array"):
            ComplexImage.from_complex(np.zeros(shape, dtype=complex))

    def test_complex_roundtrip(self):
        rng = Rng(0)
        z = rng.gen.standard_normal((6, 4)) + 1j * rng.gen.standard_normal((6, 4))
        img = ComplexImage.from_complex(z, dtype=np.float64)
        assert np.allclose(img.to_complex(), z)
        assert img.height == 6 and img.width == 4


class TestComplexNormSq:
    def test_zero_image(self):
        assert complex_norm_sq(ComplexImage.zeros(4, 4)) == 0.0

    def test_single_pixel(self):
        img = ComplexImage.zeros(4, 4, dtype=np.float64)
        img.channels[0, 1, 2] = 3.0
        img.channels[1, 1, 2] = 4.0
        assert complex_norm_sq(img) == 25.0

    def test_unit_pixels(self):
        img = ComplexImage(np.stack([np.ones((4, 4)), np.zeros((4, 4))]))
        assert complex_norm_sq(img) == 16.0

    def test_nonnegative_zero_iff_zero(self):
        rng = Rng(5)
        for _ in range(20):
            img = ComplexImage(rng.gen.standard_normal((2, 4, 6)))
            assert complex_norm_sq(img) > 0.0


class TestNormalDraw:
    def test_sample_mean_near_zero(self):
        # bound verified empirically once for this seed and frozen
        t = normal_draw(Rng(42), [10000], 1.0, dtype=np.float64)
        assert abs(t.mean()) < 0.05

    def test_determinism(self):
        a = normal_draw(Rng(9), [64], 1.0, dtype=np.float64)
        b = normal_draw(Rng(9), [64], 1.0, dtype=np.float64)
        assert np.array_equal(a, b)

    def test_std_scales_fixed_stream(self):
        a = normal_draw(Rng(3), [128], 1.0, dtype=np.float64)
        b = normal_draw(Rng(3), [128], 2.0, dtype=np.float64)
        assert np.array_equal(b, 2.0 * a)

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_rejects_nonpositive_std(self, std):
        with pytest.raises(InvalidParameterError):
            normal_draw(Rng(0), [4], std)


class TestRng:
    def test_child_streams_differ_and_are_stable(self):
        r = Rng(123)
        a = r.child(0)
        b = r.child(1)
        assert a.seed != b.seed
        assert Rng(123).child(0).seed == a.seed

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
            Rng(-1)


class TestCxt1Format:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip(self, tmp_path, dtype):
        arr = Rng(1).gen.standard_normal((2, 3, 5)).astype(dtype)
        path = tmp_path / "t.cxt"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.dtype == dtype
        assert np.array_equal(back, arr)

    def test_output_bytes_pinned(self, tmp_path):
        # the CXT1 layout is a file format: a rewrite of the writer must
        # reproduce this file byte for byte
        path = tmp_path / "t.cxt"
        save_tensor(path, Rng(23).gen.standard_normal((2, 3, 5)).astype(np.float32))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "8f709347618ab7289b5208a76b660d65a3c86bc65e3243032f9b411cf8c219a2"
        )

    def test_header_layout(self):
        buf = io.BytesIO()
        write_tensor(buf, np.zeros((3, 2), dtype=np.float32))
        raw = buf.getvalue()
        assert raw[:4] == b"CXT1"
        assert raw[4] == 4  # f32 code
        assert raw[5] == 2  # rank
        assert int.from_bytes(raw[6:10], "little") == 3
        assert int.from_bytes(raw[10:14], "little") == 2
        assert len(raw) == 14 + 6 * 4

    def test_bad_magic_rejected(self):
        with pytest.raises(InvalidParameterError):
            read_tensor(io.BytesIO(b"NOPE\x04\x01\x01\x00\x00\x00" + b"\x00" * 4))

    @pytest.mark.parametrize(
        "blob, error, match",
        [
            (b"CXT1\x07\x01\x01\x00\x00\x00" + b"\x00" * 4, InvalidParameterError, "precision code 7"),
            (b"CXT1\x04\x00" + b"\x00" * 4, InvalidShapeError, "rank must be >= 1"),
            (b"CXT1\x04\x02\x02\x00\x00\x00\x00\x00\x00\x00" + b"\x00" * 8, InvalidShapeError, "dims must be >= 1"),
        ],
        ids=["code-7", "rank-0", "zero-dim"],
    )
    def test_malformed_head_rejected(self, blob, error, match):
        with pytest.raises(error, match=match):
            read_tensor(io.BytesIO(blob))

    def test_trailing_bytes_rejected_naming_the_file(self, tmp_path):
        # read_tensor reads one tensor off a stream; a file is one tensor whole
        path = tmp_path / "t.cxt"
        save_tensor(path, np.ones(4, dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(InvalidParameterError, match="t.cxt: trailing bytes"):
            load_tensor(path)

    def test_truncated_payload_rejected(self):
        buf = io.BytesIO()
        write_tensor(buf, np.ones(4, dtype=np.float32))
        with pytest.raises(InvalidParameterError):
            read_tensor(io.BytesIO(buf.getvalue()[:-2]))

    def test_impossible_dims_rejected(self):
        # 2^31 x 2^31 float32 asks for 2^64 bytes; rejected before any read
        dims = (2**31).to_bytes(4, "little") * 2
        with pytest.raises(InvalidParameterError):
            read_tensor(io.BytesIO(b"CXT1\x04\x02" + dims + b"\x00" * 16))

    def test_rejects_non_float(self):
        with pytest.raises(InvalidParameterError):
            write_tensor(io.BytesIO(), np.zeros(3, dtype=np.int32))

    def test_rejects_rank_0(self):
        with pytest.raises(InvalidShapeError, match="rank must be in"):
            write_tensor(io.BytesIO(), np.float32(1.0).reshape(()))
