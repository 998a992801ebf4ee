import numpy as np
import pytest

from flowdpi.encflow import (FlowRowError, TlsVersion, encode,
                             parse_flow_row, parse_tls_version,
                             read_flow_csv)
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


def test_tls_version_aliases():
    assert parse_tls_version("tls1.2") is TlsVersion.TLS1_2
    assert parse_tls_version("TLSv1.3") is TlsVersion.TLS1_3
    assert parse_tls_version("sslv3") is TlsVersion.SSL3
    assert parse_tls_version("quic?") is TlsVersion.UNKNOWN


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


def test_encode_unknown_version_sentinel():
    record = parse_flow_row(dict(GOOD_ROW, tls_version="mystery"), 1)
    assert encode(record)[0] == -1.0


def test_read_flow_csv_header_check():
    with pytest.raises(FlowRowError, match="header"):
        list(read_flow_csv(["src_ip,dst_ip", "10.0.0.1,10.0.0.2"]))


def test_read_flow_csv_row_numbers():
    lines = flow_csv_rows(np.random.default_rng(0), 2, 0)
    lines.append(lines[1].replace("TLS1.2", "TLS1.2").rsplit(",", 1)[0]
                 + ",weird")
    records = read_flow_csv(lines)
    assert next(records) is not None
    assert next(records) is not None
    with pytest.raises(FlowRowError, match="row 3"):
        next(records)


def test_thousand_row_file_no_silent_drops():
    rng = np.random.default_rng(1)
    lines = flow_csv_rows(rng, 500, 500)
    records = list(read_flow_csv(lines))
    assert len(records) == 1000
    for record in records:
        assert np.isfinite(encode(record)).all()
