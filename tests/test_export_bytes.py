"""Byte-identity gate for the edge-list export.

Pins sha256 digests of ``export_edge_list`` on every family at several
seeds, on random-multitude builds sparse enough that connectivity repair
adds bridges, and on each of those after 0 and 5 random link deletions.  A
refactor of how a ``Topology`` stores or reads its nodes and links must
leave every digest unchanged.
"""

import hashlib

import numpy as np
import pytest

from multitude_sim import TopologyConfig, build, export_edge_list, import_edge_list, remove_random_links

BUILDS = {
    **{
        f"{family}-seed{seed}": TopologyConfig(family, size, size, seed=seed)
        for family, size in (("2DCA", 16), ("3DCA", 27))
        for seed in (0, 1, 2)
    },
    **{
        f"{family}-seed{seed}": TopologyConfig(family, 24, 32, seed=seed)
        for family in ("3DRMStandard", "3DRMLocal", "3DRMGlobal", "3DRMRealistic")
        for seed in (0, 1, 2)
    },
    # sparse enough that the switch graph falls apart before repair
    "3DRMStandard-repair": TopologyConfig("3DRMStandard", 16, 64, k_s=0.5, seed=4),
    "3DRMLocal-repair": TopologyConfig("3DRMLocal", 20, 40, k_s=1.0, seed=3),
    "3DRMGlobal-repair": TopologyConfig("3DRMGlobal", 12, 48, k_s=1.6, seed=5),
    "3DRMRealistic-repair": TopologyConfig("3DRMRealistic", 30, 40, k_s=1.0, k_max=3, alpha=3.0, seed=6),
}

# recorded before the Topology lost its mapping link form and node records
DIGESTS = {
    "2DCA-seed0-del0": "89e100994069388c2bcc642f561215b237cf24f861748c4f1484ee89ccba4050",
    "2DCA-seed0-del5": "1b6ea471f230ce63810d08f3695951de0ab6933456022846401e9420e2148d72",
    "2DCA-seed1-del0": "845289eeeb951646d94b5352cf216fe0027e7ded77bdde638b941c55e972d777",
    "2DCA-seed1-del5": "bbbcf1d3810783cae5d5e4a4a0bbdcbb44ffce4d745ded35d2f28911d3558b85",
    "2DCA-seed2-del0": "f6342e4d7d79c89a0511cb8955562be17caa5c1e1fb8364225bec6ba4ec8974c",
    "2DCA-seed2-del5": "1fe66378ce77f0fbc0f2896ab1be2535957d2251308cbb461958b8aa4ff5d182",
    "3DCA-seed0-del0": "98a27faaab22ee1e134cd912d39e1f37ae1d4dff6db92acee417066d3ecc54be",
    "3DCA-seed0-del5": "115b18532c37f005d7ec262a79d316909b1354f35c9ff4ff760aa832119ac387",
    "3DCA-seed1-del0": "8bb99a7f83cc0cf34138d14d13e953609657a1c30c0fc30552c7894a77d9cdbe",
    "3DCA-seed1-del5": "a3bfa8aab43ebfca67344742ee68d3400c1282e9e3e51a83d6df1a0d407abc39",
    "3DCA-seed2-del0": "c6b1fe5513152d2e7f5d97b75536e7cdb6d406bdf9d336980dbff92710134c1b",
    "3DCA-seed2-del5": "024d8e7e12b9a2b3eec2fb468b4bb00ac4c9212cae55d40a99ef174f29dd0d24",
    "3DRMGlobal-repair-del0": "12102a6f6789cf62d311556d00c45f4c06f8d02594e4ba043750db8610d1038a",
    "3DRMGlobal-repair-del5": "dba53170453be6ac77eccbf816995daa69c041643957ba2c4e8dccb065b13828",
    "3DRMGlobal-seed0-del0": "44c3c35748b414fbbce803a6d8edca816c1d12a952316ecb6d8dd7f4974ca55e",
    "3DRMGlobal-seed0-del5": "159cd3ae33ec0666dcc016210ed94d263b307f1294f5f2e35dd76787a1436730",
    "3DRMGlobal-seed1-del0": "5c94a754ddbdff0982fc78488b5abd6e05c319ef789ad473ea06726af9d8a8fb",
    "3DRMGlobal-seed1-del5": "83142c41fc115ea73955325e6faa7bf242dbdda8367edeb38f80d0319a6f2701",
    "3DRMGlobal-seed2-del0": "9d1c06c1df0711544f7048589a198f4207cadd3c127c14079b82c9225e8d1360",
    "3DRMGlobal-seed2-del5": "59ea56ffcccc527f835f7ee91a080bda9f8e93d4d90ade67afaba29b4424487a",
    "3DRMLocal-repair-del0": "b50401a778f13246b89e1905dacb366ea3a936dce809f67ee038594866d54cb6",
    "3DRMLocal-repair-del5": "14c203dae0278b8548d1b05bfd541be8f576f8cf8a6e27608eba60358237ac99",
    "3DRMLocal-seed0-del0": "a8d86c310adeb98cf99b5338b6d97be1af706117731774ef7d08ea5e4f4edb5d",
    "3DRMLocal-seed0-del5": "f829e96e0d0bc048aad8b370765516960f3d8f1952e3ec9a74cc893425f027f9",
    "3DRMLocal-seed1-del0": "318004bb8bf6a79748c3e19a208750215b7e643043b50ea7baa2416e06dbe5f8",
    "3DRMLocal-seed1-del5": "b7785b4c8f99954b71243475829b895b3375936729aebdbb3cc353bc84e23f7d",
    "3DRMLocal-seed2-del0": "a8cee5465e5438bf51dab4a0a7c179b1b094f0a220a4c662e1c424615765ba6d",
    "3DRMLocal-seed2-del5": "04de088a4612770e7c7e136c9b8e4480fd0ba11f5fc059ab6b94e24c08059c42",
    "3DRMRealistic-repair-del0": "96bf84c23d283627717136d5d6a39cf85b43f04b21fd7203e7370d05ddb31970",
    "3DRMRealistic-repair-del5": "c2c2950ff0f3739e7b4d38243e712126ad0c229ae12090e6526fbaa0bd44dadb",
    "3DRMRealistic-seed0-del0": "d1c38da5ba32cc40f70030ed856751bb750fdc83ea74fd117d0350081f5a53eb",
    "3DRMRealistic-seed0-del5": "77396a703d7e23658a2fa13f8e80ad128c1664f7e8e39b5848469c9dd843d9ff",
    "3DRMRealistic-seed1-del0": "eb28a762abbb32d0a202e380957c79d9092d60fd551d4ec3930c63934a6535ea",
    "3DRMRealistic-seed1-del5": "baa197e6a74f9ca5fd3806cc1661162977885d776483bf5cf788fbe3ec2ac3df",
    "3DRMRealistic-seed2-del0": "341bd4a179e08a315df968fe666c6bd8aa146c72392c6c8579b633017a11b723",
    "3DRMRealistic-seed2-del5": "4a5bc5190f91b2d6a32a267ef434646a385301b52c2b189d39f9ff63a990fe7e",
    "3DRMStandard-repair-del0": "edec732e12f431081a78b0176eb973c5e9a418d29d0433e533f1c5d076abe574",
    "3DRMStandard-repair-del5": "b771e3aee403d908934f1b2a353ebdee1481c1f759bc644548ce3e22332f9132",
    "3DRMStandard-seed0-del0": "a0cd4df3ebdf6ea277c8680850a44870d01b26314b095fe8a15ac0ae2bc5bc33",
    "3DRMStandard-seed0-del5": "1378401f4897e2bdc4c8e610ffd81747ab2df14780939da4b2bb29aa3254d190",
    "3DRMStandard-seed1-del0": "2852c8560e30463a92b7cd26bb7898c36d37ba2c27cac44074d763abc94cc43f",
    "3DRMStandard-seed1-del5": "1245ca9506cc2fb2b80e37a21c284cf1a79d525a890aefd479a7521089783a9e",
    "3DRMStandard-seed2-del0": "42a002eabb5479e46f68f552740f2d9497a1e3bcf7f7828cfda192e19813b80a",
    "3DRMStandard-seed2-del5": "6055e99837fd43280505af098d8313b3f9a9a66c256f253c000694df0a234ab4",
}


@pytest.mark.parametrize("deletions", (0, 5))
@pytest.mark.parametrize("name", sorted(BUILDS))
def test_export_bytes(name, deletions):
    config = BUILDS[name]
    topo = remove_random_links(build(config), deletions, np.random.default_rng(config.seed))
    text = export_edge_list(topo)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[f"{name}-del{deletions}"]
    assert export_edge_list(import_edge_list(text)) == text


@pytest.mark.parametrize("name", [name for name in sorted(BUILDS) if name.endswith("-repair")])
def test_repair_cases_repair(name):
    # more switch links than the build makes attempts: repair bridged components
    config = BUILDS[name]
    attempts = round(config.k_s * config.n_switch / 2)
    assert len(build(config).switch_link_pairs()) > attempts
