import math
import re

import numpy as np
import pytest

from graphspde import (
    DataError,
    SyntheticSpec,
    gen_heat_line,
    gen_wave_line,
    load_graph_csv,
    load_series_csv,
    write_graph_csv,
    write_series_csv,
)
from graphspde.data_io import heat_profile, wave_profile


def heat_spec(**overrides):
    defaults = dict(kind="heat_line", n_nodes=21, coefficient=1.0,
                    timestamps=tuple(float(t) for t in range(1, 6)), noise_sd=0.0, seed=0)
    defaults.update(overrides)
    return SyntheticSpec(**defaults)


class TestHeatLine:
    def test_center_value_at_unit_time(self):
        # direct evaluation: 5 / (4 pi) at x = 0, k = 1, t = 1
        graph, data = gen_heat_line(heat_spec(timestamps=(1.0,)))
        center = graph.n_vertices // 2
        value = dict(((p.vertex, p.time), y) for p, y in data.observations)[(center, 1.0)]
        np.testing.assert_allclose(value, 5.0 / (4.0 * math.pi), rtol=1e-12)
        np.testing.assert_allclose(value, 0.39789, rtol=1e-4)

    def test_spatial_symmetry_without_noise(self):
        _, data = gen_heat_line(heat_spec())
        values = {}
        for p, y in data.observations:
            values.setdefault(p.time, {})[p.vertex] = y
        n = 21
        for t, by_vertex in values.items():
            for v in range(n):
                np.testing.assert_allclose(by_vertex[v], by_vertex[n - 1 - v], rtol=1e-12)

    def test_riemann_sum_tracks_continuous_integral(self):
        # the profile's spatial integral is 5 / sqrt(4 pi k t); the unit-spaced
        # Riemann sum over 21 nodes should match it within 2% for t in [1, 5]
        k = 1.0
        coords = np.arange(21) - 10.0
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            riemann = heat_profile(coords, t, k).sum()
            exact = 5.0 / math.sqrt(4.0 * math.pi * k * t)
            assert abs(riemann - exact) / exact < 0.02

    def test_seed_determinism(self):
        a = gen_heat_line(heat_spec(noise_sd=0.1, seed=3))[1]
        b = gen_heat_line(heat_spec(noise_sd=0.1, seed=3))[1]
        assert a.observations == b.observations

    def test_rejects_time_zero(self):
        with pytest.raises(DataError, match="positive"):
            heat_spec(timestamps=(0.0, 1.0))


class TestWaveLine:
    def test_zero_snapshot_when_cosine_vanishes(self):
        n, speed = 11, 1.0
        omega = math.pi * speed / (n - 1)
        t_zero = (math.pi / 2.0) / omega  # cos(omega t) = 0
        _, data = gen_wave_line(SyntheticSpec(kind="wave_line", n_nodes=n, coefficient=speed,
                                              timestamps=(t_zero,), noise_sd=0.0, seed=0))
        values = np.array([y for _, y in data.observations])
        np.testing.assert_allclose(values, 0.0, atol=1e-12)

    def test_periodicity(self):
        n, speed = 11, 1.0
        omega = math.pi * speed / (n - 1)
        period = 2.0 * math.pi / omega
        for t in (1.0, 3.7):
            np.testing.assert_allclose(
                wave_profile(n, t, speed), wave_profile(n, t + period, speed), atol=1e-12
            )

    def test_default_benchmark_has_eleven_nodes(self):
        graph, _ = gen_wave_line(SyntheticSpec(kind="wave_line", n_nodes=11, coefficient=1.0,
                                               timestamps=(1.0,)))
        assert graph.n_vertices == 11

    def test_minimum_nodes(self):
        with pytest.raises(DataError, match="at least 2"):
            SyntheticSpec(kind="wave_line", n_nodes=1, coefficient=1.0, timestamps=(1.0,))


class TestGraphCsv:
    def test_round_trip(self, tmp_path):
        graph, _ = gen_heat_line(heat_spec(n_nodes=5))
        path = tmp_path / "graph.csv"
        write_graph_csv(graph, path)
        loaded = load_graph_csv(path)
        assert loaded.labels == graph.labels
        assert loaded.edges == graph.edges

    def test_two_row_path_graph(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("src,dst,weight\na,b,1\nb,c,1\n")
        graph = load_graph_csv(path)
        assert graph.n_vertices == 3
        assert graph.labels == ("a", "b", "c")

    def test_weight_defaults_to_one(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("src,dst\na,b\n")
        graph = load_graph_csv(path)
        assert graph.edges[0][2] == 1.0

    @pytest.mark.parametrize("weight", ["0", "-2.5"])
    def test_non_positive_weight_reports_line(self, tmp_path, weight):
        path = tmp_path / "g.csv"
        path.write_text(f"src,dst,weight\na,b,1\nb,c,{weight}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: edge \\('b', 'c'\\) has non-positive weight"):
            load_graph_csv(path)

    def test_self_loop_reports_line(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("src,dst,weight\na,b,1\nb,c,1\nc,c,1\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: self-loop at vertex 'c' is not allowed$"):
            load_graph_csv(path)

    @pytest.mark.parametrize("directed, repeat", [(False, "b,a"), (True, "a,b")])
    def test_duplicate_edge_reports_line(self, tmp_path, directed, repeat):
        # an undirected graph reads b,a as a,b again; a directed one reads it as a second edge
        path = tmp_path / "g.csv"
        if directed:
            path.write_text("src,dst,weight\na,b,1\nb,c,1\nb,a,2\n")
            assert len(load_graph_csv(path, directed=True).edges) == 3
        path.write_text(f"src,dst,weight\na,b,1\nb,c,1\n{repeat},2\n")
        src, dst = repeat.split(",")
        message = f"^{re.escape(str(path))}:4: duplicate edge between '{src}' and '{dst}'$"
        with pytest.raises(DataError, match=message):
            load_graph_csv(path, directed=directed)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("from,to\na,b\n")
        with pytest.raises(DataError, match="header"):
            load_graph_csv(path)


class TestSeriesCsv:
    def test_round_trip_is_exact(self, tmp_path):
        graph, data = gen_heat_line(heat_spec(n_nodes=7, noise_sd=0.25, seed=9))
        path = tmp_path / "series.csv"
        write_series_csv(data, path)
        loaded = load_series_csv(path, graph)
        assert loaded.observations == data.observations

    def test_unknown_node_named_in_error(self, tmp_path):
        graph, _ = gen_heat_line(heat_spec(n_nodes=3))
        path = tmp_path / "series.csv"
        path.write_text("node_id,t,y\nzz,1.0,2.0\n")
        with pytest.raises(DataError, match=r"series\.csv:2.*'zz'"):
            load_series_csv(path, graph)

    def test_duplicate_observation_rejected(self, tmp_path):
        graph, _ = gen_heat_line(heat_spec(n_nodes=3))
        label = graph.labels[0]
        path = tmp_path / "series.csv"
        path.write_text(f"node_id,t,y\n{label},1.0,2.0\n{label},1.0,3.0\n")
        with pytest.raises(DataError, match="duplicate"):
            load_series_csv(path, graph)

    def test_malformed_number_reports_line(self, tmp_path):
        graph, _ = gen_heat_line(heat_spec(n_nodes=3))
        label = graph.labels[0]
        path = tmp_path / "series.csv"
        for values in ("1.0,not-a-number", "-1,0.5"):
            path.write_text(f"node_id,t,y\n{label},1.0,0.5\n{label},{values}\n")
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: "):
                load_series_csv(path, graph)

    def test_non_finite_rejected(self, tmp_path):
        graph, _ = gen_heat_line(heat_spec(n_nodes=3))
        label = graph.labels[0]
        path = tmp_path / "series.csv"
        path.write_text(f"node_id,t,y\n{label},1.0,inf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_series_csv(path, graph)


def test_crlf_line_endings_accepted(tmp_path):
    path = tmp_path / "g.csv"
    path.write_bytes(b"src,dst,weight\r\na,b,1\r\nb,c,2\r\n")
    graph = load_graph_csv(path)
    assert graph.n_vertices == 3
    weights = {(graph.labels[i], graph.labels[j]): w for i, j, w in graph.edges}
    assert weights[("b", "c")] == 2.0
