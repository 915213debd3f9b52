import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import read_pgm, watched
from piece import datagen as dg


@pytest.fixture(scope="module")
def glyphs():
    params = dg.GlyphParams()
    return dg.make_glyphs(params, 7, "train"), dg.make_glyphs(params, 7, "test")


class TestGlyphs:
    def test_deterministic(self):
        params = dg.GlyphParams(n_test_per_class=10)
        a = dg.make_glyphs(params, 7, "test")
        b = dg.make_glyphs(params, 7, "test")
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_splits_differ(self):
        params = dg.GlyphParams(n_train_per_class=30, n_test_per_class=30)
        a = dg.make_glyphs(params, 7, "train")
        b = dg.make_glyphs(params, 7, "test")
        assert not np.array_equal(a.images, b.images)

    def test_class_balance(self):
        data = dg.make_glyphs(dg.GlyphParams(), 1, "train")
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
        with pytest.raises(dg.DataError, match="n_test_per_class must be at least 1, got 0"):
            dg.GlyphParams(n_test_per_class=0)
        with pytest.raises(dg.DataError, match="n_train_per_class must be at least 30, got 29"):
            dg.GlyphParams(n_train_per_class=dg.MIN_CLASS_SAMPLES - 1)
        with pytest.raises(dg.DataError):
            dg.make_glyphs(dg.GlyphParams(), 5, "validation")

    def test_seed_changes_the_images(self):
        params = dg.GlyphParams(n_test_per_class=10)
        a = dg.make_glyphs(params, 7, "test")
        b = dg.make_glyphs(params, 8, "test")
        assert np.array_equal(a.labels, b.labels) and not np.array_equal(a.images, b.images)

    def test_every_field_is_read(self):
        # a [dataset] key that nothing reads would be echoed and recorded,
        # yet change no image
        params, reads = watched(dg.GlyphParams(n_train_per_class=30, n_test_per_class=2))
        for split in ("train", "test"):
            assert len(dg.make_glyphs(params, 7, split)) == params.count(split)
        assert reads == {f.name for f in dataclasses.fields(dg.GlyphParams)}

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
        data = dg.make_glyphs(dg.GlyphParams(n_test_per_class=5), 3, "test")
        path = tmp_path / "d.json"
        dg.save_dataset(data, path)
        back = dg.load_dataset(path)
        assert np.array_equal(back.images, data.images)
        assert np.array_equal(back.labels, data.labels)
        assert back.split == "test"

    def test_manifest_round_trip(self, tmp_path):
        # the dataset's manifest is datagen's stage record: each key it
        # fixes, under its INI name
        from piece.runcfg import RunConfig, RunPaths, datagen_fields

        cfg = RunConfig(seed=9, dataset=dg.GlyphParams(n_train_per_class=30, side=14))
        data = dg.make_glyphs(cfg.dataset, cfg.seed, "train")
        paths = RunPaths(str(tmp_path))
        with paths.stage("datagen", False, **datagen_fields(cfg)) as out:
            dg.save_dataset(data, out.dataset("train.json"))
        doc = json.loads((tmp_path / "stages" / "datagen.json").read_text())
        assert doc["format"] == "piece-stage-record"
        assert {k: doc[k] for k in ("seed", "n_train_per_class", "side")} == {
            "seed": 9, "n_train_per_class": 30, "side": 14}
        assert doc.keys() == {"format", "stage", "files", "seed",
                              *(f.name for f in dataclasses.fields(dg.GlyphParams))}
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
        dg.save_dataset(dg.make_glyphs(dg.GlyphParams(n_test_per_class=2), 3, "test"), path)
        return path, path.read_bytes()

    def test_exit_code(self):
        from piece.cli import _EXIT_CODES

        assert _EXIT_CODES[dg.DatasetFormatError] == 4

    def test_intact_document_decodes(self, original):
        path, _ = original
        whole = dg.load_dataset(path)
        assert len(whole) == 8
        assert dg.load_dataset(path, rows=[7, 0]).images.tobytes() == whole.images[[7, 0]].tobytes()
