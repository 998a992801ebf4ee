import re
import sys

import numpy as np
import pytest

from flowdpi.encflow import (EncryptedFlowRecord, FlowRowError, TlsVersion,
                             encode, encode_all, parse_flow_row,
                             parse_tls_version, read_flow_csv)
from synth import flow_csv_rows

GOOD_ROW = {
    "src_ip": "10.0.0.1", "src_port": "51000", "dst_ip": "10.0.0.2",
    "dst_port": "443", "proto": "TCP", "tls_version": "TLS1.0",
    "ttl": "64", "duration": "2.0", "fwd_pkts": "10", "bwd_pkts": "10",
}


def test_parse_well_formed_row():
    record = parse_flow_row(GOOD_ROW, 1)
    assert record.tls_version is TlsVersion.TLS1_0
    assert record.ttl == 64 and record.duration == 2.0
    assert record.label is None


def test_ttl_out_of_range_reports_row_number():
    row = dict(GOOD_ROW, ttl="300")
    with pytest.raises(FlowRowError, match="row 7"):
        parse_flow_row(row, 7)


def test_missing_column():
    row = dict(GOOD_ROW)
    del row["duration"]
    with pytest.raises(FlowRowError, match="duration"):
        parse_flow_row(row, 2)


def test_unparsable_numeric():
    with pytest.raises(FlowRowError):
        parse_flow_row(dict(GOOD_ROW, fwd_pkts="lots"), 3)


@pytest.mark.parametrize("column", ["fwd_pkts", "bwd_pkts"])
def test_negative_packet_count_rejected(column):
    with pytest.raises(FlowRowError, match="row 4: negative packet count"):
        parse_flow_row(dict(GOOD_ROW, **{column: "-1"}), 4)


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_non_finite_duration_rejected(value):
    with pytest.raises(FlowRowError, match="row 5: duration is not finite"):
        parse_flow_row(dict(GOOD_ROW, duration=value), 5)


def test_negative_duration_rejected():
    with pytest.raises(FlowRowError, match="negative duration"):
        parse_flow_row(dict(GOOD_ROW, duration="-0.5"), 1)


def test_zero_packet_counts_accepted():
    record = parse_flow_row(dict(GOOD_ROW, fwd_pkts="0", bwd_pkts="0"), 1)
    assert record.fwd_packets == 0 and encode(record)[7] == 0.0


def test_label_parsing():
    assert parse_flow_row(dict(GOOD_ROW, label="benign"), 1).label == 0
    assert parse_flow_row(dict(GOOD_ROW, label="Botnet"), 1).label == 1
    assert parse_flow_row(dict(GOOD_ROW, label="1"), 1).label == 1
    with pytest.raises(FlowRowError):
        parse_flow_row(dict(GOOD_ROW, label="weird"), 1)


@pytest.mark.parametrize("column,value,reason", [
    ("src_port", "4_43", "src_port '4_43' is not a whole number"),
    ("src_port", "\u0664\u0664\u0663",
     "src_port '\u0664\u0664\u0663' is not a whole number"),
    ("dst_port", "+443", "dst_port '+443' is not a whole number"),
    ("ttl", " +64 ", "ttl ' +64 ' is not a whole number"),
    ("ttl", "64.0", "ttl '64.0' is not a whole number"),
    ("fwd_pkts", "1_000", "packet count fwd_pkts '1_000' is not a whole"),
    ("bwd_pkts", "1e3", "packet count bwd_pkts '1e3' is not a whole"),
    ("duration", "1_0.5", "duration '1_0.5' is not a decimal number"),
    ("duration", "\u0661.\u0665",
     "duration '\u0661.\u0665' is not a decimal number"),
    ("duration", "1e999", "duration is not finite"),
    ("tls_version", "tls9", "unknown tls_version 'tls9'"),
    ("tls_version", "TLSv12", "unknown tls_version 'TLSv12'"),
    ("tls_version", "garbage", "unknown tls_version 'garbage'"),
])
def test_malformed_field_is_rejected_with_its_reason(column, value, reason):
    with pytest.raises(FlowRowError, match=f"row 6: {re.escape(reason)}"):
        parse_flow_row(dict(GOOD_ROW, **{column: value}), 6)


@pytest.mark.parametrize("value", ["1e-05", "0.5", "1e+16", "3", "0.0"])
def test_duration_reads_every_float_repr(value):
    assert parse_flow_row(dict(GOOD_ROW, duration=value), 1).duration == \
        float(value)


def test_row_with_a_field_too_many_is_rejected():
    # a duration written "1,5" would shift every later column by one
    header = ",".join(GOOD_ROW) + ",label"
    good = ",".join(GOOD_ROW.values()) + ",benign"
    shifted = good.replace(",2.0,", ",1,5,")
    first, error, after = read_flow_csv([header, good, "", shifted, good])
    assert first.label == 0 and after == first
    assert isinstance(error, FlowRowError)
    assert str(error) == "row 2: 12 fields where the header has 11"


def test_row_with_a_field_too_few_is_rejected():
    header = ",".join(GOOD_ROW)
    [error] = read_flow_csv([header, header.rsplit(",", 1)[0]])
    assert isinstance(error, FlowRowError)
    assert str(error) == "row 1: 9 fields where the header has 10"


def test_tls_version_aliases():
    assert parse_tls_version("tls1.2") is TlsVersion.TLS1_2
    assert parse_tls_version("TLSv1.3") is TlsVersion.TLS1_3
    assert parse_tls_version("sslv3") is TlsVersion.SSL3
    assert parse_tls_version("unknown") is TlsVersion.UNKNOWN
    with pytest.raises(ValueError, match="unknown tls_version 'quic\\?'"):
        parse_tls_version("quic?")


def test_encode_worked_example():
    record = parse_flow_row(dict(GOOD_ROW, tls_version="TLS1.2"), 1)
    vec = encode(record)
    assert np.array_equal(vec, [3, 64, 2.0, 51000, 443, 0, 1, 10.0])


def test_encode_observed_port_order_preserved():
    # ports come from the observed row, not the canonical key ordering
    row = dict(GOOD_ROW, src_port="443", dst_port="51000",
               tls_version="TLS1.2")
    vec = encode(parse_flow_row(row, 1))
    assert vec[3] == 443 and vec[5] == 1.0


def test_encode_zero_duration_finite():
    record = parse_flow_row(dict(GOOD_ROW, duration="0"), 1)
    vec = encode(record)
    assert np.isfinite(vec).all()
    assert vec[7] == pytest.approx(20 / 1e-3)


@pytest.mark.filterwarnings("error")
def test_rate_past_the_largest_float_encodes_as_inf():
    fwd = str(int(sys.float_info.max) - 10)
    record = parse_flow_row(dict(GOOD_ROW, duration="0", fwd_pkts=fwd), 1)
    vec = encode(record)
    assert vec[7] == np.inf and np.isfinite(vec[:7]).all()
    assert encode_all([record]).tolist() == [vec.tolist()]


def test_encode_all_is_encode_row_by_row():
    records = list(read_flow_csv(
        flow_csv_rows(np.random.default_rng(4), 30, 20)))
    X = encode_all(iter(records))   # read as it goes
    assert X.shape == (50, 8) and X.dtype == float
    assert X.tolist() == [encode(r).tolist() for r in records]
    assert encode_all([]).shape == (0, 8)


def test_encode_unknown_version_sentinel():
    record = parse_flow_row(dict(GOOD_ROW, tls_version="unknown"), 1)
    assert encode(record)[0] == -1.0


def test_read_flow_csv_header_check():
    # nothing after a bad header can be read
    [error] = read_flow_csv(["src_ip,dst_ip", "10.0.0.1,10.0.0.2"])
    assert isinstance(error, FlowRowError) and error.row_no == 0
    assert str(error).startswith("row 0: header missing columns: src_port")


def test_read_flow_csv_row_numbers():
    lines = flow_csv_rows(np.random.default_rng(0), 2, 0)
    lines.append(lines[1].replace("TLS1.2", "TLS1.2").rsplit(",", 1)[0]
                 + ",weird")
    records = list(read_flow_csv(lines + lines[1:2]))
    assert [type(r) for r in records] == [EncryptedFlowRecord] * 2 + [
        FlowRowError, EncryptedFlowRecord]
    assert str(records[2]) == "row 3: bad label 'weird'"


def test_thousand_row_file_no_silent_drops():
    rng = np.random.default_rng(1)
    lines = flow_csv_rows(rng, 500, 500)
    records = list(read_flow_csv(lines))
    assert len(records) == 1000
    for record in records:
        assert np.isfinite(encode(record)).all()


def test_stray_quote_rejects_its_row_only():
    # csv.reader over the whole file used to read rows 3-10 into the
    # quoted field that row 2 opened
    lines = flow_csv_rows(np.random.default_rng(2), 10, 0)
    lines[2] = lines[2].replace(",TLS1.2,", ',"TLS1.2,')
    records = list(read_flow_csv(lines))
    assert len(records) == 10
    assert str(records[1]) == "row 2: bad CSV: unexpected end of data"
    assert all(isinstance(r, EncryptedFlowRecord)
               for r in records[:1] + records[2:])


def test_quote_inside_a_field_is_rejected_not_dropped():
    header = ",".join(GOOD_ROW)
    bad = ",".join(GOOD_ROW.values()).replace(",TCP,", ',"TC"P,')
    [error] = read_flow_csv([header, bad])
    assert str(error) == "row 1: bad CSV: ',' expected after '\"'"


def test_field_past_the_csv_limit_is_a_row_error():
    header = ",".join(GOOD_ROW)
    good = ",".join(GOOD_ROW.values())
    huge = good.replace(",TCP,", "," + "x" * 200_000 + ",")
    first, error, after = read_flow_csv([header, good, huge, good])
    assert first == after
    assert str(error) == ("row 2: bad CSV: field larger than field limit "
                          "(131072)")


def test_bad_csv_header_is_row_0():
    [error] = read_flow_csv(['src_ip,"src_port', ",".join(GOOD_ROW.values())])
    assert str(error) == "row 0: bad CSV header: unexpected end of data"


@pytest.mark.parametrize("fwd,bwd", [("1" + "0" * 400, "1"),
                                     ("9" * 308, "9" * 308)],
                         ids=["one-count", "the-sum"])
def test_packet_count_too_large_for_a_float_is_rejected(fwd, bwd):
    with pytest.raises(FlowRowError, match="row 3: packet count fwd_pkts "
                                           r"\+ bwd_pkts is too large"):
        parse_flow_row(dict(GOOD_ROW, fwd_pkts=fwd, bwd_pkts=bwd), 3)
    # a count that a float holds is read and encoded
    big = str(int(1e300))
    assert encode(parse_flow_row(dict(GOOD_ROW, fwd_pkts=big), 1))[7] > 0
