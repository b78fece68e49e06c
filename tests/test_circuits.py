"""The built-in circuit generators are pinned byte for byte: the emitted
.bench of each corpus circuit the tests and the benchmark use."""

import hashlib

import pytest

from benchlock import circuits
from benchlock.bench import emit_bench
from structure import tfi


def corpus():
    """c432_scale(), the three lock-workload inputs and the verify-workload
    circuits, by name."""
    yield "c432s_433", lambda: circuits.c432_scale()
    yield "lay8x300", lambda: circuits.layered_netlist(
        96, [300] * 8, 2, n_outputs=200, name="lay8x300")
    yield "rand5000", lambda: circuits.random_netlist(128, 5000, 5, name="rand5000")
    yield "lay10x600", lambda: circuits.layered_netlist(
        128, [600] * 10, 6, n_outputs=600, name="lay10x600")
    for v in range(12):
        yield f"r16_{v}", lambda v=v: circuits.random_netlist(16, 1200, 100 + v, name=f"r16_{v}")
        yield f"c432s_{600 + v}", lambda v=v: circuits.c432_scale(600 + v)
        yield f"lay48_{v}", lambda v=v: circuits.layered_netlist(
            48, [90] * 8, 700 + v, n_outputs=12, name=f"lay48_{v}")
        yield f"llm{v}", lambda v=v: circuits.random_netlist(14, 160, 800 + v, name=f"llm{v}")


EMITTED_SHA256 = {
    'c432s_433': '8f2d393cef8507afef097b7e2e0d7ad29d93655aa2faa01ed28b7a02649ab3d7',
    'lay8x300': 'a6adc853178af01726a6abf4447247a29d2248cd681aaa2d3adb1f0bb99e9b77',
    'rand5000': 'd103bb66ee5669f6bfbaf187e3a10273014799a22728e4f6402d67a6adc4a701',
    'lay10x600': '1199399e374120a7bd9b6dd6b86a74e06588672efe671fa99b53f4f727247006',
    'r16_0': '9da147a83881456ac697d93578c7b152e34215e05d4e0149260ac8e6c6d9eac0',
    'c432s_600': '7deae81bbf688ddab115150b43a9b1cb29f666ff85e2d5cbcc9c66f252c21238',
    'lay48_0': 'feeda0c204e536459ca24db57fd4c754c717cb5338ce0330277068c28ad74db7',
    'llm0': '6f9cf9f0b26de5d1c5727b0cff17779319f04438cecb5865ae590f95d684e3e5',
    'r16_1': 'e042c440d6f14ed8d258e0f162123480251e7d3a7161c961b0c04b284226fc8f',
    'c432s_601': '989eb14797c61f5de04f11b3a01f8319f52c5ef0a5041c9e364795330c9766db',
    'lay48_1': 'f00c6f9ad1f19f7c840a3a97388e3d3905a7993795dd3934ab7144925e96d10f',
    'llm1': 'c3e94810cf7b40c1861a5201ebfc31adbe056f0a2e59d78c32b38de39f37e19d',
    'r16_2': '0500ee407df02d5af1237ba9546fd6716038bca614a18c8a08787cabfd606dbc',
    'c432s_602': '703931a95473661aeaaeb08032578332996dc3e4f9cc4abcb88c009f17456d40',
    'lay48_2': '5616f68648ddc0b7cd52982e83c6743b99875e182f9ea6beb48539d324a02d80',
    'llm2': '542da20c971beb4cecbf3d1927b63e00bc90238e628d44c597670d8e32e97a0e',
    'r16_3': '35075ef05779136dc43d49ec3f78c27cd3591a22f77a290d4c5315862b3dd51e',
    'c432s_603': '9a5d608e42db15cb9e1e4c31e6397fe1ae82d807f1e42c92c718d7d9eaad7039',
    'lay48_3': '56c8b94a42c8ff41050de397f0a51a99761e4068a5afc7c3e6ed842b79156a8b',
    'llm3': '9a58f26d5f2c102df2aacbe916d1e539acc692b0f1816414f1bf016b7a5cb69f',
    'r16_4': 'd207ac5c57482bae166ec316a97aaff1ae4188b1c032b79c8ba3dc7459ccc892',
    'c432s_604': 'dc608743a4aa94fb1a4b79a6290389f43f1283efad769e932c13c8aad1d8cefe',
    'lay48_4': 'b5985232eda87ea656986f6af842b150afcd7926d26efdbebd671aa871e6f131',
    'llm4': '78bcdab9e1061fffd9d272011fec9de466b9ffe649af834e3e64412a5e1a0b79',
    'r16_5': '602c5117cd0d20bea2993761fb70dd616161583a9d6de3eda59e38ea1e9aac67',
    'c432s_605': 'a50ab3012ffe8daa9e9992594c4dabb96931954c25051f6b8c5dd581deb1f811',
    'lay48_5': 'f36f61c7d5633f5304f4dc1c86e2335d18e90e9c310808ee941577627aff51a0',
    'llm5': '61c24b548d93c7b6b796fceeddbe0dc31b97f0bb7d42702c68f752c1f9eede36',
    'r16_6': '0af59677ae68eea5d5389903d62663c137c0306b039a28c48012be160c995d59',
    'c432s_606': 'c49e3015ba883e1a0b429e7989f825b6b1a68866df01faea601154a6f53c089e',
    'lay48_6': 'f5edeea2d92fa76a0b0ff34bc0bfddc36487a4bc8133df9d9e63033aa7a7ab8a',
    'llm6': 'bf21b8101cea7aaac13624a2c970f60da1e37244bfd277f37294d03296698c8f',
    'r16_7': 'c46389e4c119bf2cf1737e5e61527f43d4b832472a2766c0bb8ff4e31881b342',
    'c432s_607': '0accdf00e3189e7d4f0d853fb70d542e281130de1876123af4736b17ea088dc2',
    'lay48_7': 'afcdd96c9f7552e2a89d11b4e9070f1eaa07d65dfbd92cdcb66b43831c2bf0b1',
    'llm7': 'b8572657790034a66a7a9d1708fbc85185a5061e1e6de9d0890d666ac1d7a639',
    'r16_8': '5a02236dbaf6a6a4a227f2a24f8a2bccad2e3dc1927eae0fc34dc79e48a4a740',
    'c432s_608': '8eb3336b0963c82a3b954da0d6381eb1a5ba68d672dc678875ea435049a7f8eb',
    'lay48_8': 'e42c4b8ff9703843e4f17a0bdad0de26a9622e169483b4dc95009da26d993531',
    'llm8': '8a15dc3f21c987b0e912e00213526cf0a9ad2e7586cc21d6b2e4ef24c00269cb',
    'r16_9': '00d923cb8f57100b58453801a86c35789b3e5f55e2d68d9f27f904ac38982f4c',
    'c432s_609': '78019b46214b34ba4ebcb0dbf5654f583a208c44a562f3875d7ec4c318277760',
    'lay48_9': '27fb45cf9ece899fed6f5aacd652cbd8f274060eaad44ded2fa8cdcc4abcfb71',
    'llm9': 'e7c6442d56baaefdc8395da20d732e57f1ff8277d7178f049fd89d5d361ca2c9',
    'r16_10': '4a4d3ddb68cfcd09720eb15dc565f83529f8fb7b1f0a6fe81958d3f45e88136b',
    'c432s_610': 'b703a477d178f76bd046d1dd7557011d1e25764aa30c94ed3f2dcfaad6a0e831',
    'lay48_10': '34ed4d8c8fcca8f5a35c09b8370943fc047dca4e0e5c7c56fdd89dd363b5f530',
    'llm10': 'e61c66f1c08b4a41601e3881e788b87e4c69763b2a08ca0e7164f47c1ca84a04',
    'r16_11': '8f6eaa74fe6bc7cda2dadfe6c4fa49ec3828ff88c49522d62a1a079c64c54d48',
    'c432s_611': 'c8175a09d46f12af5db1dd9f266bd4f053db5c54091d8822be5cd9d45072e289',
    'lay48_11': '3e5c80353bea1f8230fe2cbe8cee4fca3666587423296eeff3bc7781d456c1eb',
    'llm11': 'e86a15ce2e4c8ab5604147a8cb41aebbd8fe4cd76ac70b9eee0bb87036aa70a1',
}


@pytest.mark.parametrize("name, build", list(corpus()), ids=[n for n, _ in corpus()])
def test_corpus_circuit_is_pinned(name, build):
    text = emit_bench(build())
    assert hashlib.sha256(text.encode()).hexdigest() == EMITTED_SHA256[name]


@pytest.mark.parametrize("seed", range(6))
def test_layered_netlist_keeps_exactly_the_observed_logic(seed):
    n = circuits.layered_netlist(12, [30, 30, 20], seed, n_outputs=5)
    observed = set(n.primary_outputs).union(*(tfi(n, po) for po in n.primary_outputs))
    assert all(g.output in observed for g in n.gates)
