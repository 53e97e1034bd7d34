"""Bag file format, manifest parsing, and the synthetic generator."""

import datetime as dt
import struct

import numpy as np
import pytest

from detectbert.data import (
    BAG_MAGIC,
    BAG_VERSION,
    BagEmptyError,
    BagFormatError,
    BagMagicError,
    BagTruncatedError,
    BagVersionError,
    ManifestError,
    SynthConfig,
    bag_width,
    dataset_stats,
    gen_synthetic,
    load_bags,
    load_manifest,
    read_bag,
    synth_bag,
    write_bag,
)
from detectbert.model import Bag


def make_bag(rng, n=3, d=4):
    return Bag("b", 1, dt.date(2019, 1, 1), rng.standard_normal((n, d)))


class TestBagFiles:
    def test_roundtrip_exact_at_32bit(self, tmp_path):
        rng = np.random.default_rng(0)
        bag = make_bag(rng, 3, 4)
        path = tmp_path / "b.dbmb"
        write_bag(bag, path)
        back = read_bag(path)
        np.testing.assert_array_equal(
            back.embeddings, bag.embeddings.astype(np.float32).astype(np.float64)
        )

    def test_roundtrip_many_random_bags(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(100):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 9))
            bag = Bag(f"b{i}", 0, dt.date(2020, 1, 1), rng.standard_normal((n, d)))
            path = tmp_path / f"{i}.dbmb"
            write_bag(bag, path)
            back = read_bag(path)
            np.testing.assert_array_equal(
                back.embeddings, bag.embeddings.astype(np.float32).astype(np.float64)
            )

    def test_short_file_is_truncation_error(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "b.dbmb"
        write_bag(make_bag(rng), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(BagTruncatedError):
            read_bag(path)

    @pytest.mark.parametrize("n, d", [(20000, 2000), (2**31, 2**31 - 1)])
    def test_header_larger_than_file_allocates_nothing(self, tmp_path, allocates_under, n, d):
        path = tmp_path / "b.dbmb"
        path.write_bytes(BAG_MAGIC + struct.pack("<III", BAG_VERSION, n, d))
        with allocates_under(1 << 20), pytest.raises(BagTruncatedError):
            read_bag(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.dbmb"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(BagMagicError):
            read_bag(path)

    def test_bad_version(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "b.dbmb"
        write_bag(make_bag(rng), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (7).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(BagVersionError):
            read_bag(path)

    def test_zero_instances_rejected(self, tmp_path):
        import struct

        path = tmp_path / "b.dbmb"
        path.write_bytes(b"DBMB" + struct.pack("<III", 1, 0, 4))
        with pytest.raises(BagEmptyError):
            read_bag(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "b.dbmb"
        write_bag(make_bag(rng), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(BagFormatError, match="trailing"):
            read_bag(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_the_file(self, tmp_path, value):
        path = tmp_path / "b.dbmb"
        write_bag(make_bag(np.random.default_rng(7), n=3, d=4), path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([value], dtype="<f4").tobytes()  # the last instance's last value
        path.write_bytes(bytes(raw))
        with pytest.raises(BagFormatError) as raised:
            read_bag(path, app_id="app-1")
        assert str(raised.value) == f"{path}: embeddings contain non-finite values"


    @pytest.mark.parametrize("row", [0, 517, 999])
    def test_non_finite_value_in_any_chunk_names_the_file(self, tmp_path, row):
        n, d = 1000, 256  # many chunks of READ_CHUNK_BYTES
        path = tmp_path / "b.dbmb"
        write_bag(make_bag(np.random.default_rng(8), n=n, d=d), path)
        raw = bytearray(path.read_bytes())
        at = 16 + 4 * (row * d + 3)
        raw[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(BagFormatError, match="non-finite"):
            read_bag(path)

    def test_long_bag_read_holds_one_widened_copy(self, tmp_path, allocates_under):
        """read_bag widens the payload a chunk at a time into the bag's one float64
        array: under 2.1 times the file's size (3.25 when it held the whole payload
        and a boolean finiteness mask beside the float64 copy)."""
        n, d = 1000, 256
        path = tmp_path / "b.dbmb"
        bag = make_bag(np.random.default_rng(9), n=n, d=d)
        write_bag(bag, path)
        with allocates_under(2.1 * path.stat().st_size):
            back = read_bag(path)
        np.testing.assert_array_equal(
            back.embeddings, bag.embeddings.astype(np.float32).astype(np.float64)
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_bag_rejects_non_finite_values_without_a_mask(self, allocates_under, value):
        emb = np.random.default_rng(10).standard_normal((1000, 256))
        Bag("b", 1, None, emb)
        with allocates_under(1 << 16):
            Bag("b", 1, None, emb)  # a boolean mask would be 256 KB
        emb[500, 7] = value
        with pytest.raises(ValueError, match="non-finite"):
            Bag("b", 1, None, emb)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (4,)])
    def test_bag_rejects_an_empty_or_flat_matrix(self, shape):
        with pytest.raises(ValueError, match="non-empty 2-D"):
            Bag("b", 1, None, np.zeros(shape))


class TestBagWidth:
    def test_width_from_the_header(self, tmp_path):
        path = tmp_path / "b.dbmb"
        write_bag(make_bag(np.random.default_rng(5), n=3, d=7), path)
        assert bag_width(path) == 7

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: raw[:-5],
            lambda raw: raw + b"\x00",
            lambda raw: b"NOPE" + raw[4:],
            lambda raw: raw[:4] + struct.pack("<III", 7, 3, 4) + raw[16:],
            lambda raw: raw[:4] + struct.pack("<III", BAG_VERSION, 0, 4),
            lambda raw: raw[:4] + struct.pack("<III", BAG_VERSION, 2**31, 2**31 - 1),
        ],
        ids=["short", "trailing", "magic", "version", "empty", "huge"],
    )
    def test_rejects_what_read_bag_rejects(self, tmp_path, allocates_under, corrupt):
        path = tmp_path / "b.dbmb"
        write_bag(make_bag(np.random.default_rng(6), n=3, d=4), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(BagFormatError) as from_read:
            read_bag(path)
        with allocates_under(1 << 20), pytest.raises(BagFormatError) as from_width:
            bag_width(path)
        assert type(from_width.value) is type(from_read.value)
        assert str(from_width.value) == str(from_read.value)


class TestManifest:
    def write(self, tmp_path, lines):
        path = tmp_path / "manifest.csv"
        path.write_text("app_id,label,date,path\n" + "".join(f"{l}\n" for l in lines))
        return path

    def test_two_valid_records(self, tmp_path):
        path = self.write(
            tmp_path,
            ["app-1,0,2019-05-01,bags/a.dbmb", "app-2,1,2020-06-02,bags/b.dbmb"],
        )
        manifest = load_manifest(path)
        assert len(manifest) == 2
        assert manifest[0].label == 0
        assert manifest[1].date == dt.date(2020, 6, 2)
        # relative paths resolve against the manifest directory
        assert manifest[0].path == tmp_path / "bags/a.dbmb"

    def test_duplicate_app_id_names_the_id(self, tmp_path):
        path = self.write(
            tmp_path, ["dup,0,2019-01-01,a.dbmb", "dup,1,2019-01-02,b.dbmb"]
        )
        with pytest.raises(ManifestError, match="dup"):
            load_manifest(path)

    def test_bad_label_reports_line_number(self, tmp_path):
        path = self.write(
            tmp_path, ["app-1,0,2019-01-01,a.dbmb", "app-2,2,2019-01-02,b.dbmb"]
        )
        with pytest.raises(ManifestError, match=":3:"):
            load_manifest(path)

    def test_bad_date_reports_line_number(self, tmp_path):
        path = self.write(tmp_path, ["app-1,0,01/05/2019,a.dbmb"])
        with pytest.raises(ManifestError, match=":2:"):
            load_manifest(path)

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = self.write(tmp_path, ["app-1,0,2019-01-01,a.dbmb", "app-2,0,2019-01-01,b.dbmb"])
        path.write_bytes(path.read_bytes().replace(b"app-2", b"app-\xff"))
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert str(exc.value).startswith(f"{path}:3: not UTF-8 text")

    def test_missing_header(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("app-1,0,2019-01-01,a.dbmb\n")
        with pytest.raises(ManifestError, match="header"):
            load_manifest(path)


class TestSyntheticGenerator:
    def test_label_rule_holds_by_construction(self):
        """Positive bags have at least one witness, benign bags none,
        exhaustively over a generated set."""
        config = SynthConfig(num_bags=120, d=6, bag_size_min=2, bag_size_max=15, seed=9)
        for i in range(config.num_bags):
            bag, witnesses = synth_bag(config, i)
            if bag.label == 1:
                assert witnesses >= 1
            else:
                assert witnesses == 0

    def test_same_seed_byte_identical_output(self, tmp_path):
        config = SynthConfig(num_bags=12, d=5, bag_size_min=2, bag_size_max=6, seed=3)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        gen_synthetic(config, dir_a)
        gen_synthetic(config, dir_b)
        assert (dir_a / "manifest.csv").read_bytes() == (dir_b / "manifest.csv").read_bytes()
        for f in sorted((dir_a / "bags").iterdir()):
            assert f.read_bytes() == (dir_b / "bags" / f.name).read_bytes()

    def test_dates_split_half_2019_half_2020(self):
        config = SynthConfig(num_bags=40, d=4, bag_size_min=1, bag_size_max=3, seed=1)
        years = [synth_bag(config, i)[0].date.year for i in range(40)]
        assert years.count(2019) == 20
        assert years.count(2020) == 20

    def test_positive_fraction_within_binomial_bound(self):
        """Malware count over 1000 bags stays within 3 sigma of the mean
        (binomial oracle: sigma = sqrt(n p (1-p)))."""
        config = SynthConfig(
            num_bags=1000, d=4, bag_size_min=1, bag_size_max=3,
            positive_fraction=0.39, seed=7,
        )
        count = sum(synth_bag(config, i)[0].label for i in range(1000))
        sigma = (1000 * 0.39 * 0.61) ** 0.5
        assert abs(count - 390) <= 3 * sigma

    def test_generated_set_loads_back(self, tmp_path):
        config = SynthConfig(num_bags=8, d=5, bag_size_min=2, bag_size_max=4, seed=5)
        manifest = gen_synthetic(config, tmp_path)
        reloaded = load_manifest(tmp_path / "manifest.csv")
        assert len(reloaded) == 8
        bags = load_bags(reloaded, range(8))
        for bag, rec in zip(bags, reloaded):
            assert bag.app_id == rec.app_id
            assert bag.dim == 5
        # bag files carry exactly what synth_bag produced
        regen, _ = synth_bag(config, 0)
        np.testing.assert_array_equal(bags[0].embeddings, regen.embeddings)

    def test_a_long_bag_is_made_and_written_in_place(self, tmp_path, allocates_under):
        """synth_bag holds its float64 bag and one float32 copy of it, and write_bag
        only the float32 copy: under 2 and 0.75 bag-sized float64 arrays."""
        n, d = 1000, 256
        config = SynthConfig(num_bags=1, d=d, bag_size_min=n, bag_size_max=n, seed=4)
        synth_bag(config, 0)  # one-time allocations happen here
        with allocates_under(2 * n * d * 8):
            bag, _ = synth_bag(config, 0)
        with allocates_under(0.75 * n * d * 8):
            write_bag(bag, tmp_path / "b.dbmb")

    def test_invalid_witness_rate(self):
        with pytest.raises(ValueError):
            SynthConfig(witness_rate=0.0)

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_shift_rejected(self, shift):
        with pytest.raises(ValueError, match="signal_shift must be finite"):
            SynthConfig(signal_shift=shift)


class TestDatasetStats:
    def test_counts_and_sizes(self, tmp_path):
        config = SynthConfig(num_bags=20, d=4, bag_size_min=2, bag_size_max=9, seed=2)
        manifest = gen_synthetic(config, tmp_path)
        stats = dataset_stats(manifest)
        assert stats["num_apps"] == 20
        assert stats["benign"] + stats["malware"] == 20
        assert stats["by_year"] == {2019: 10, 2020: 10}

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError):
            dataset_stats([])

    def test_full_scale_label_counts(self):
        """Label counting at the real corpus scale (96994 benign, 61809 malware)."""
        from detectbert.data import ManifestRecord

        records = [
            ManifestRecord(f"app-{i}", 1 if i < 61809 else 0,
                           dt.date(2019, 1, 1), "missing.dbmb")
            for i in range(158803)
        ]
        stats = dataset_stats(records)
        assert stats["benign"] == 96994
        assert stats["malware"] == 61809
