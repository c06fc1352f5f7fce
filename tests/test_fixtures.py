import json
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest

import ncglab as L
import ncglab.fixtures as FX
from ncglab import serialize as S
from ncglab.errors import AlphaNotSquare, LabInputError


class TestZeroCluster:
    def test_costs_and_ratio_n4(self):
        fx = L.gen_general_bse(4, F(2))
        assert L.cost_report(fx.instance, fx.stable_net).social_total == F(30)
        assert L.cost_report(fx.instance, fx.reference_net).social_total == F(10)
        assert fx.expected_ratio == F(3)
        assert not fx.ratio_is_asymptotic_only

    def test_ratio_n5_alpha1(self):
        fx = L.gen_general_bse(5, F(1))
        report = L.cost_report(fx.instance, fx.stable_net)
        ref = L.cost_report(fx.instance, fx.reference_net)
        assert report.social_total / ref.social_total == F(2) == fx.expected_ratio

    def test_claimed_stability_holds(self):
        fx = L.gen_general_bse(4, F(2))
        assert L.is_bse(fx.instance, fx.stable_net).stable

    def test_rejects_tiny_n(self):
        with pytest.raises(LabInputError):
            L.gen_general_bse(2, F(1))

    def test_social_cost_matches_star_closed_form(self):
        # the zero cluster collapses to a star: (2n-2+2a) * w(E)
        for n, alpha in [(4, F(2)), (6, F(5)), (5, F(1, 2))]:
            fx = L.gen_general_bse(n, alpha)
            stable_cost = L.cost_report(fx.instance, fx.stable_net).social_total
            assert stable_cost == L.star_social_cost(n, alpha, alpha + 1)


class TestTwoTierStar:
    def test_ps_host_weights(self):
        fx = L.gen_metric_star(4, F(4), "ps")
        w = fx.instance.host.weights
        assert w[0][1] == F(1)  # heavy leaf to old center
        assert w[1][2] == F(1, 2)
        assert w[0][2] == F(3, 2)
        assert w[2][3] == F(1)
        assert sum(w[u][v] for u, v in fx.reference_net.edges) == F(2)
        assert sum(w[u][v] for u, v in fx.stable_net.edges) == F(4)

    def test_ps_ratio_closed_form(self):
        fx = L.gen_metric_star(4, F(4), "ps")
        assert fx.expected_ratio == F(2) == 1 + F(4 - 2) / ((4 - 2) * F(2, 4) + 1)
        measured = (
            L.cost_report(fx.instance, fx.stable_net).social_total
            / L.cost_report(fx.instance, fx.reference_net).social_total
        )
        assert measured == fx.expected_ratio

    def test_bne_ratio_and_stability(self):
        fx = L.gen_metric_star(5, F(16), "bne")
        assert fx.expected_ratio == F(11, 5)
        assert L.is_bne(fx.instance, fx.stable_net).stable

    def test_bse_ratio_and_stability(self):
        fx = L.gen_metric_star(5, F(25), "bse")
        assert fx.expected_ratio == 1 + F(5 - 2, 1) / (F(2 * 5 * (5 - 2), 25) + 1)
        assert fx.expected_ratio == F(26, 11)
        assert L.is_bse(fx.instance, fx.stable_net).stable

    def test_bne_requires_square_alpha(self):
        with pytest.raises(AlphaNotSquare):
            L.gen_metric_star(5, F(5), "bne")

    def test_unknown_variant_rejected(self):
        with pytest.raises(LabInputError, match="unknown two_tier_star variant 'nope'"):
            L.gen_metric_star(4, F(2), "nope")

    def test_hosts_are_metric(self):
        for variant, alpha in [("ps", F(3)), ("bne", F(9)), ("bse", F(7))]:
            fx = L.gen_metric_star(5, alpha, variant)
            assert L.is_metric(fx.instance.host).is_metric


class TestClusterPath:
    def test_costs_alpha36_n6(self):
        fx = L.gen_metric_path(6, F(36))
        assert L.cost_report(fx.instance, fx.stable_net).social_total == F(170)
        assert L.cost_report(fx.instance, fx.reference_net).social_total == F(246)
        assert fx.ratio_is_asymptotic_only

    def test_stability_alpha36_n6(self):
        fx = L.gen_metric_path(6, F(36))
        assert L.is_bse(fx.instance, fx.stable_net).stable

    def test_host_is_metric(self):
        fx = L.gen_metric_path(7, F(36))
        assert L.is_metric(fx.instance.host).is_metric

    def test_path_head_cluster_sits_at_zero(self):
        fx = L.gen_metric_path(6, F(36))
        w = fx.instance.host.weights
        assert w[0][3] == 0 and w[3][4] == 0
        assert w[0][1] == 1 and w[0][2] == 2 and w[1][2] == 1
        assert w[3][1] == 1 and w[3][2] == 2

    def test_preconditions(self):
        with pytest.raises(AlphaNotSquare):
            L.gen_metric_path(6, F(35))
        with pytest.raises(LabInputError):
            L.gen_metric_path(6, F(9))  # below 16
        with pytest.raises(LabInputError):
            L.gen_metric_path(5, F(36))  # above n^2


class TestVerifyFixture:
    def test_all_families_verify(self):
        fixtures = [
            L.gen_general_bse(4, F(2)),
            L.gen_metric_star(5, F(4), "ps"),
            L.gen_metric_star(5, F(16), "bne"),
            L.gen_metric_path(6, F(36)),
        ]
        for fx in fixtures:
            report = L.verify_fixture(fx)
            assert report.ok, report.render()

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_zero_cluster_verifies_beyond_the_optimum_limit(self, n):
        # the bse check alone: the optimum is proven only up to VERIFY_OPT_LIMIT
        report = L.verify_fixture(L.gen_general_bse(n, F(2)))
        assert report.ok, report.render()
        assert report.stability == "stable"

    def test_two_tier_star_bse_verifies_at_n8(self):
        report = L.verify_fixture(L.gen_metric_star(8, F(7), "bse"))
        assert report.ok, report.render()
        assert report.stability == "stable"

    def test_corrupted_fixture_is_flagged(self):
        fx = L.gen_general_bse(4, F(2))
        broken = replace(
            fx, stable_net=L.Network(n=4, edges=fx.stable_net.edges[1:])  # drop an edge
        )
        report = L.verify_fixture(broken)
        assert not report.ok
        failed = {c.name for c in report.checks if not c.passed}
        assert any("stable" in name for name in failed)

    def test_all_zero_host_fails_the_ratio_check_without_raising(self):
        # every network costs 0, so both ratios are 0/0: equal sides give 1
        fx = L.gen_general_bse(4, F(2))
        zero = [[F(0)] * 4 for _ in range(4)]
        bundle = replace(
            fx, instance=L.Instance(host=L.validate_host(zero), alpha=fx.instance.alpha)
        )
        report = L.verify_fixture(bundle)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"cost ratio exact"}
        details = {c.name: c.detail for c in report.checks}
        assert details["cost ratio exact"] == f"ratio=1 expected={fx.expected_ratio}"
        assert details["ratio vs proven optimum at least reference ratio"] == (
            "vs_opt=1 vs_reference=1"
        )

    def test_report_renders_one_line_per_check(self):
        report = L.verify_fixture(L.gen_general_bse(4, F(1)))
        lines = report.render().splitlines()
        assert len(lines) == len(report.checks)
        assert all(line.startswith(("PASS", "FAIL")) for line in lines)


class TestGenerateDispatch:
    def test_families(self):
        assert L.generate("zero_cluster", 4, F(2)).family == "zero_cluster"
        assert L.generate("two_tier_star", 5, F(4), "ps").claimed_concept == "ps"
        assert L.generate("cluster_path", 6, F(36)).family == "cluster_path"
        with pytest.raises(LabInputError):
            L.generate("nope", 4, F(1))
        with pytest.raises(LabInputError, match="claims no 'ps' variant"):
            L.generate("zero_cluster", 4, F(2), "ps")
        with pytest.raises(LabInputError, match="claims no 'bne' variant"):
            L.generate("cluster_path", 6, F(36), "bne")
        assert L.generate("cluster_path", 6, F(36), "bse").claimed_concept == "bse"


class TestFamilyClaims:
    def test_the_table_names_each_familys_claims(self):
        assert [f.name for f in fields(L.Fixture)] == [
            "family",
            "instance",
            "stable_net",
            "reference_net",
            "claimed_concept",
            "expected_ratio",
        ]
        claims = {
            name: (f.concepts, f.asymptotic_only, f.requires_metric)
            for name, f in L.FAMILIES.items()
        }
        assert claims == {
            "zero_cluster": (("bse",), False, False),
            "two_tier_star": (("ps", "bne", "bse"), False, True),
            "cluster_path": (("bse",), True, True),
        }

    @pytest.mark.parametrize(
        "change",
        [
            {"family": "nope"},
            {"family": 7},
            {"claimed_concept": "ps"},
            {"claimed_concept": "xx"},
            {"family": "cluster_path", "claimed_concept": "ps"},
        ],
        ids=repr,
    )
    def test_fixture_refuses_what_its_family_does_not_claim(self, change):
        with pytest.raises(LabInputError):
            replace(L.gen_general_bse(4, F(2)), **change)

    @pytest.mark.parametrize(
        "edit",
        [
            {"asymptotic_only": True},
            {"requires_metric": True},
            {"variant": "ps"},
            {"variant": 3},
            {"variant": None},
            {"concept": "PS"},
            {"family": "two_tier_star"},
        ],
        ids=repr,
    )
    def test_loader_refuses_a_bundle_restating_a_claim_differently(self, edit):
        data = json.loads(S.fixture_to_json(L.gen_general_bse(4, F(2))))
        with pytest.raises(LabInputError):
            S.fixture_from_json(json.dumps(data | edit))

    def test_loader_takes_omitted_claims_from_the_family(self):
        fx = L.gen_metric_path(6, F(36))
        text = S.fixture_to_json(fx)
        data = json.loads(text)
        for key in ("variant", "asymptotic_only", "requires_metric"):
            del data[key]
        back = S.fixture_from_json(json.dumps(data))
        assert back == fx and S.fixture_to_json(back) == text
        assert back.ratio_is_asymptotic_only and back.requires_metric

    def test_verify_prices_each_network_once(self, monkeypatch):
        calls = []

        def counting(inst, net):
            calls.append(net)
            return L.cost_report(inst, net)

        monkeypatch.setattr(FX, "cost_report", counting)
        fx = L.gen_general_bse(4, F(2))
        assert L.verify_fixture(fx).ok
        assert calls == [fx.stable_net, fx.reference_net]
