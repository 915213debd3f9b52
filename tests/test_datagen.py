import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import read_pgm
from piece import datagen as dg


@pytest.fixture(scope="module")
def glyphs():
    params = dg.GlyphParams(seed=7)
    return dg.make_glyphs(params, 250, "train"), dg.make_glyphs(params, 100, "test")


class TestGlyphs:
    def test_deterministic(self):
        params = dg.GlyphParams(seed=7)
        a = dg.make_glyphs(params, 10, "train")
        b = dg.make_glyphs(params, 10, "train")
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_splits_differ(self):
        params = dg.GlyphParams(seed=7)
        a = dg.make_glyphs(params, 10, "train")
        b = dg.make_glyphs(params, 10, "test")
        assert not np.array_equal(a.images, b.images)

    def test_class_balance(self):
        data = dg.make_glyphs(dg.GlyphParams(seed=1), 250, "train")
        assert len(data) == 1000
        assert np.array_equal(np.bincount(data.labels), [250, 250, 250, 250])

    def test_values_in_unit_interval(self, glyphs):
        train, _ = glyphs
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_bright_pixel_fraction_per_class(self, glyphs):
        # frozen bounds from the generated distribution
        train, _ = glyphs
        for cls in range(4):
            frac = float((train.images[train.labels == cls] > 0.5).mean())
            assert 0.02 < frac < 0.6, (cls, frac)

    def test_degenerate_params_rejected(self):
        with pytest.raises(dg.DataError):
            dg.GlyphParams(thickness_max=9)
        with pytest.raises(dg.DataError):
            dg.GlyphParams(side=8)

    def test_bad_split_and_count(self):
        with pytest.raises(dg.DataError):
            dg.make_glyphs(dg.GlyphParams(), 0, "train")
        with pytest.raises(dg.DataError):
            dg.make_glyphs(dg.GlyphParams(), 5, "validation")

    def test_nearest_neighbor_separability(self, glyphs):
        # pixel-space 1-nn oracle, implemented inline and brute force
        train, test = glyphs
        tr = train.flat()
        te = test.flat()
        hits = 0
        for i in range(len(te)):
            d2 = np.sum((tr - te[i]) ** 2, axis=1)
            hits += train.labels[int(np.argmin(d2))] == test.labels[i]
        assert hits / len(te) >= 0.95


class TestPgm:
    def test_zero_image_exact_bytes(self, tmp_path):
        path = tmp_path / "z.pgm"
        dg.write_pgm(np.zeros((2, 2)), path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes(4)

    def test_half_rounds_up(self, tmp_path):
        path = tmp_path / "h.pgm"
        dg.write_pgm(np.full((1, 1), 0.5), path)
        assert path.read_bytes()[-1] == 128

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(dg.DataError, match="range"):
            dg.write_pgm(np.full((2, 2), 1.2), tmp_path / "x.pgm")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_quantization_bound(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.random((5, 7))
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".pgm")
        os.close(fd)
        try:
            dg.write_pgm(img, path)
            back = read_pgm(path)
            assert back.shape == img.shape
            assert np.max(np.abs(back - img)) <= 1 / 255
        finally:
            os.unlink(path)

    def test_read_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(dg.DataError, match="P5"):
            read_pgm(path)

    def test_read_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(2))
        with pytest.raises(dg.DataError, match="pixel bytes"):
            read_pgm(path)


class TestDatasetFiles:
    def test_save_load_round_trip(self, tmp_path):
        data = dg.make_glyphs(dg.GlyphParams(seed=3), 5, "test")
        path = tmp_path / "d.json"
        dg.save_dataset(data, path)
        back = dg.load_dataset(path)
        assert np.array_equal(back.images, data.images)
        assert np.array_equal(back.labels, data.labels)
        assert back.split == "test"

    def test_manifest_round_trip(self, tmp_path):
        # the dataset's manifest is datagen's stage record
        from dataclasses import asdict

        from piece.runcfg import RunPaths

        params = dg.GlyphParams(seed=9)
        data = dg.make_glyphs(params, 5, "train")
        paths = RunPaths(str(tmp_path))
        with paths.stage("datagen", False, params=asdict(params), counts={"train": 10}) as out:
            dg.save_dataset(data, out.dataset("train.json"))
        doc = json.loads((tmp_path / "stages" / "datagen.json").read_text())
        assert doc["format"] == "piece-stage-record"
        assert doc["params"]["seed"] == 9
        assert doc["counts"]["train"] == 10
        assert doc["files"] == {"dataset/train.json": dg.file_sha256(paths.dataset("train.json"))}
        assert paths.done("datagen")


class TestDatasetFormat:
    """A dataset document decodes whole or by rows, and one that does not
    raises DatasetFormatError, which the CLI reports on one line with exit 4
    (`tests/test_cli.py::TestDocumentFormats` damages it as every other
    format)."""

    @pytest.fixture(scope="class")
    def original(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("format") / "test.json"
        dg.save_dataset(dg.make_glyphs(dg.GlyphParams(seed=3), 2, "test"), path)
        return path, path.read_bytes()

    def test_exit_code(self):
        from piece.cli import _EXIT_CODES

        assert _EXIT_CODES[dg.DatasetFormatError] == 4

    def test_intact_document_decodes(self, original):
        path, _ = original
        whole = dg.load_dataset(path)
        assert len(whole) == 8
        assert dg.load_dataset(path, rows=[7, 0]).images.tobytes() == whole.images[[7, 0]].tobytes()
