"""Tests for the Markov prefetcher, the future-work extras, and the CLI."""

from conftest import feed_stream, make_event

from repro.baselines.markov import MarkovPrefetcher


class TestMarkov:
    def test_learns_repeating_miss_sequence(self):
        pf = MarkovPrefetcher(min_confidence=2)
        sequence = [0x100, 0x900, 0x420, 0x777] * 6
        requests = feed_stream(pf, [a * 64 for a in sequence])
        assert requests
        lines = {r.line for r in requests}
        assert lines <= set(sequence)

    def test_prediction_follows_successor(self):
        pf = MarkovPrefetcher(min_confidence=2, degree=1)
        for _ in range(4):
            pf.on_access(make_event(addr=0x1000, hit=False))
            pf.on_access(make_event(addr=0x9000, hit=False))
        requests = pf.on_access(make_event(addr=0x1000, hit=False))
        assert requests and requests[0].line == 0x9000 >> 6

    def test_no_prediction_without_confidence(self):
        pf = MarkovPrefetcher(min_confidence=3)
        pf.on_access(make_event(addr=0x1000, hit=False))
        pf.on_access(make_event(addr=0x9000, hit=False))
        requests = pf.on_access(make_event(addr=0x1000, hit=False))
        assert requests is None

    def test_hits_ignored(self):
        pf = MarkovPrefetcher()
        assert pf.on_access(make_event(addr=0x1000, hit=True)) is None
        assert pf._last_miss is None

    def test_table_bounded(self):
        pf = MarkovPrefetcher(table_entries=8)
        feed_stream(pf, [i * 6400 for i in range(100)])
        assert len(pf._table) <= 8

    def test_successor_ways_bounded(self):
        pf = MarkovPrefetcher(ways=2)
        for successor in range(10):
            pf.on_access(make_event(addr=0x1000, hit=False))
            pf.on_access(make_event(addr=(successor + 100) * 4096,
                                    hit=False))
        entry = pf._table[0x1000 >> 6]
        assert len(entry.successors) <= 2

    def test_registered(self):
        from repro import make_prefetcher
        assert make_prefetcher("markov").name == "markov"

    def test_storage_is_large(self):
        # The paper: "Markov prefetchers require a lot of storage."
        assert MarkovPrefetcher().storage_bits / 8 / 1024 > 20


class TestCli:
    def test_prefetchers_listing(self, capsys):
        from repro.__main__ import main
        main(["prefetchers"])
        out = capsys.readouterr().out
        assert "tpc" in out and "markov" in out

    def test_workloads_listing(self, capsys):
        from repro.__main__ import main
        main(["workloads"])
        out = capsys.readouterr().out
        assert "spec.mcf" in out and "crono" in out

    def test_simulate_command(self, capsys):
        from repro.__main__ import main
        main(["simulate", "npb.ep", "stride"])
        out = capsys.readouterr().out
        assert "speedup vs no-prefetch" in out

    def test_compare_command(self, capsys):
        from repro.__main__ import main
        main(["compare", "npb.ep", "none", "tpc"])
        out = capsys.readouterr().out
        assert "tpc" in out


class TestFutureWork:
    def test_small_run(self):
        from repro.experiments import future_work
        rows = future_work.run(apps=["spec.mcf"], extras=["markov"])
        assert len(rows) == 1
        assert rows[0].extra == "markov"
        assert rows[0].tpc > 0
        assert "marginal" in future_work.render(rows)

    def test_both_extras_by_default(self):
        from repro.experiments import future_work
        rows = future_work.run(apps=["npb.ep"])
        assert {r.extra for r in rows} == {"markov", "isb"}
