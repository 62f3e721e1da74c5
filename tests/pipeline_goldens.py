"""Golden outputs of the retired hand-written flushing pipeline trainer.

Recorded from ``FlushingPipelineTrainer`` — the hand-written 1F1B/GPipe
trainer whose schedules :class:`repro.sched.ScheduledPipelineTrainer`
now compiles from the IR — immediately before it was deleted, with the
``tests/test_sched.py`` tiny GPT (``CFG``) over the first three batches
of ``make_batches()`` at (g_inter, g_data, microbatch_size) = (2, 1, 2)
and (4, 2, 1).

* ``LOSSES`` / ``WEIGHTS``: 1F1B and GPipe gave identical losses and
  final weights, so one table per grid serves both schedules.  Weights
  are frozen as per-tensor checksums (:func:`weight_checksums`).
* ``TRACE_PER_BATCH``: the recorded ``(kind, rank, peer, tag,
  microbatch)`` trace, identical in every batch, encoded compactly
  (:func:`decode_trace`).
"""

import re

import numpy as np


def weight_checksums(state):
    """``{name: (position-weighted sum, sum of squares)}`` per tensor."""
    out = {}
    for name, a in state.items():
        flat = a.ravel().astype(np.float64)
        w = 1.0 + np.arange(flat.size) % 7
        out[name] = (float(flat @ w), float(flat @ flat))
    return out


_EVENT = re.compile(r"([sr])(\d+)[<>](\d+)([FB])(\d+)|c(\d+)")


def decode_trace(text):
    """``s0>1F2`` = rank 0 sends F mb 2 to rank 1, ``r1<0F2`` = rank 1
    receives it, ``c4`` = rank 4 records an fp32 gradient all-reduce."""
    events = []
    for m in _EVENT.finditer(text):
        kind, rank, peer, tag, mb, coll = m.groups()
        if coll is not None:
            events.append(("collective", int(coll), None, "allreduce_fp32",
                           None))
        else:
            events.append(("send" if kind == "s" else "recv", int(rank),
                           int(peer), tag, int(mb)))
    return events


LOSSES = {
    (2, 1, 2): [
        2.9488625526428223,
        2.9254074692726135,
        2.912970781326294,
    ],
    (4, 2, 1): [
        2.9488625228405,
        2.9254075288772583,
        2.912970721721649,
    ],
}

WEIGHTS = {
    (2, 1, 2): {
        "slot0.tok.weight": (0.5243409585382324,
            0.07719635328064882),
        "slot0.pos.weight": (0.4821946654410567,
            0.009511442611924978),
        "slot1.ln1.weight": (42.97558778524399,
            11.992854459495959),
        "slot1.ln1.bias": (-0.03020578675204888,
            6.026720101136437e-05),
        "slot1.attn.qkv.weight": (-2.72640012075135,
            0.186433182832125),
        "slot1.attn.qkv.bias": (0.021521708778502457,
            0.00013987224714431248),
        "slot1.attn.proj.weight": (-0.17283089039847255,
            0.006706925818476805),
        "slot1.attn.proj.bias": (0.02234620845410973,
            5.3148631000212584e-05),
        "slot1.ln2.weight": (43.04539704322815,
            12.022142796677397),
        "slot1.ln2.bias": (0.0025643132685218006,
            3.0681142907937e-05),
        "slot1.mlp.fc.weight": (-2.0470176337257726,
            0.24911973632544032),
        "slot1.mlp.fc.bias": (0.05185429399716668,
            0.00024139895103444863),
        "slot1.mlp.proj.weight": (-0.6014683418397908,
            0.029563927179447842),
        "slot1.mlp.proj.bias": (0.023151296889409423,
            5.2974375586845274e-05),
        "slot2.ln1.weight": (43.01109999418259,
            12.018570040162693),
        "slot2.ln1.bias": (-0.014973564277170226,
            6.117508304482694e-05),
        "slot2.attn.qkv.weight": (0.6837866146815941,
            0.1817789716506012),
        "slot2.attn.qkv.bias": (-0.05715913273317774,
            0.00011148989748129495),
        "slot2.attn.proj.weight": (0.3047693529515527,
            0.007775981012345705),
        "slot2.attn.proj.bias": (0.020167651411611587,
            5.29951285869888e-05),
        "slot2.ln2.weight": (43.01777791976929,
            12.003826647707722),
        "slot2.ln2.bias": (0.02129148575477302,
            4.395624614607035e-05),
        "slot2.mlp.fc.weight": (1.8361954001884442,
            0.2187811553404662),
        "slot2.mlp.fc.bias": (0.0484793962968979,
            0.00019325740231708596),
        "slot2.mlp.proj.weight": (1.4286049333459232,
            0.033258716712078376),
        "slot2.mlp.proj.bias": (0.018794096948113292,
            5.3078302779280295e-05),
        "slot3.ln1.weight": (43.005413591861725,
            12.006591373561683),
        "slot3.ln1.bias": (-0.012620853318367153,
            6.316670548821475e-05),
        "slot3.attn.qkv.weight": (-3.811245995981153,
            0.181580778820185),
        "slot3.attn.qkv.bias": (-0.028365299344873307,
            8.662324000897928e-05),
        "slot3.attn.proj.weight": (-0.050697672908427194,
            0.006537422832697877),
        "slot3.attn.proj.bias": (0.01970941323088482,
            5.473968458285581e-05),
        "slot3.ln2.weight": (43.050501585006714,
            12.0253774480766),
        "slot3.ln2.bias": (-0.001608752238098532,
            6.036138116979997e-05),
        "slot3.mlp.fc.weight": (-2.257098611735273,
            0.23579119764169926),
        "slot3.mlp.fc.bias": (0.0814003334089648,
            0.0002252278738483133),
        "slot3.mlp.proj.weight": (-0.21434412342205178,
            0.030961412555969188),
        "slot3.mlp.proj.bias": (0.021414729999378324,
            5.471116444457726e-05),
        "slot4.ln1.weight": (42.99450379610062,
            11.990400715439772),
        "slot4.ln1.bias": (-0.024616709095425904,
            3.471145412787467e-05),
        "slot4.attn.qkv.weight": (-2.1578004664115724,
            0.1878331532597736),
        "slot4.attn.qkv.bias": (-0.04601726379501159,
            9.434115359735875e-05),
        "slot4.attn.proj.weight": (0.0019783266470767558,
            0.008998217204310315),
        "slot4.attn.proj.bias": (0.021292961318977177,
            5.530469293491303e-05),
        "slot4.ln2.weight": (43.047326147556305,
            12.024219055958437),
        "slot4.ln2.bias": (0.010035071987658739,
            4.452867696845439e-05),
        "slot4.mlp.fc.weight": (3.678629520611139,
            0.2668165060217279),
        "slot4.mlp.fc.bias": (0.08140321617247537,
            0.0002137806163297126),
        "slot4.mlp.proj.weight": (0.9725171706522815,
            0.03487756776904241),
        "slot4.mlp.proj.bias": (0.02159663662314415,
            5.52658398410122e-05),
        "slot5.ln_f.weight": (42.99445992708206,
            11.98987463798625),
        "slot5.ln_f.bias": (0.006599857530090958,
            6.651516097073852e-05),
        "slot5.lm_head.weight": (0.23130876332288608,
            0.0950471027062076),
    },
    (4, 2, 1): {
        "slot0.tok.weight": (0.5243409599643201,
            0.07719635343270277),
        "slot0.pos.weight": (0.48219465391593985,
            0.009511442649969592),
        "slot1.ln1.weight": (42.97558778524399,
            11.992854459495959),
        "slot1.ln1.bias": (-0.030205787625163794,
            6.0267201279534094e-05),
        "slot1.attn.qkv.weight": (-2.726400160448975,
            0.186433183826284),
        "slot1.attn.qkv.bias": (0.02152153296974957,
            0.00013987223771001306),
        "slot1.attn.proj.weight": (-0.17283087407122366,
            0.006706925722606442),
        "slot1.attn.proj.bias": (0.022346207697410136,
            5.314863191629624e-05),
        "slot1.ln2.weight": (43.04539704322815,
            12.022142796677397),
        "slot1.ln2.bias": (0.0025643154222052544,
            3.068114217281973e-05),
        "slot1.mlp.fc.weight": (-2.047017620134284,
            0.24911973703643098),
        "slot1.mlp.fc.bias": (0.05185429271659814,
            0.00024139895664158852),
        "slot1.mlp.proj.weight": (-0.6014683146568132,
            0.029563927300228724),
        "slot1.mlp.proj.bias": (0.023151298402808607,
            5.297437682334731e-05),
        "slot2.ln1.weight": (43.01109999418259,
            12.018570040162693),
        "slot2.ln1.bias": (-0.014973566372646019,
            6.117508582807233e-05),
        "slot2.attn.qkv.weight": (0.6837866555142682,
            0.1817789722760657),
        "slot2.attn.qkv.bias": (-0.05715894193403592,
            0.00011148989785626198),
        "slot2.attn.proj.weight": (0.3047693617991172,
            0.007775981038102668),
        "slot2.attn.proj.bias": (0.020167652633972466,
            5.299512827986578e-05),
        "slot2.ln2.weight": (43.01777791976929,
            12.003826647707722),
        "slot2.ln2.bias": (0.021291484008543193,
            4.395624330479544e-05),
        "slot2.mlp.fc.weight": (1.836195360228885,
            0.21878115545755933),
        "slot2.mlp.fc.bias": (0.04847940048784949,
            0.00019325739216049143),
        "slot2.mlp.proj.weight": (1.4286049737420399,
            0.033258716981858165),
        "slot2.mlp.proj.bias": (0.018794096598867327,
            5.307830705786517e-05),
        "slot3.ln1.weight": (43.005413591861725,
            12.006591373561683),
        "slot3.ln1.bias": (-0.012620858906302601,
            6.31667053288385e-05),
        "slot3.attn.qkv.weight": (-3.811245878896443,
            0.18158077818307367),
        "slot3.attn.qkv.bias": (-0.028366193861570466,
            8.662323918314847e-05),
        "slot3.attn.proj.weight": (-0.05069768773682881,
            0.006537422890924078),
        "slot3.attn.proj.bias": (0.01970941649051383,
            5.473969022244076e-05),
        "slot3.ln2.weight": (43.050501585006714,
            12.0253774480766),
        "slot3.ln2.bias": (-0.0016087514522951096,
            6.036137871141866e-05),
        "slot3.mlp.fc.weight": (-2.2570985780475894,
            0.23579119734453072),
        "slot3.mlp.fc.bias": (0.08140034106327221,
            0.00022522786946896578),
        "slot3.mlp.proj.weight": (-0.21434409107314423,
            0.030961412425528204),
        "slot3.mlp.proj.bias": (0.0214147349470295,
            5.47111666910658e-05),
        "slot4.ln1.weight": (42.99450379610062,
            11.990400715439772),
        "slot4.ln1.bias": (-0.02461671200580895,
            3.471145181687612e-05),
        "slot4.attn.qkv.weight": (-2.157800554698042,
            0.18783315321718816),
        "slot4.attn.qkv.bias": (-0.04601781202266875,
            9.434115665459226e-05),
        "slot4.attn.proj.weight": (0.00197832690901123,
            0.00899821706283303),
        "slot4.attn.proj.bias": (0.02129296271596104,
            5.530469007470431e-05),
        "slot4.ln2.weight": (43.047326147556305,
            12.024219055958437),
        "slot4.ln2.bias": (0.010035076033091173,
            4.452867608436619e-05),
        "slot4.mlp.fc.weight": (3.6786295839119703,
            0.2668165067149263),
        "slot4.mlp.fc.bias": (0.0814032154448796,
            0.00021378062400617638),
        "slot4.mlp.proj.weight": (0.9725170834135497,
            0.03487756769684608),
        "slot4.mlp.proj.bias": (0.021596639999188483,
            5.52658363687966e-05),
        "slot5.ln_f.weight": (42.99445992708206,
            11.98987463798625),
        "slot5.ln_f.bias": (0.006599859974812716,
            6.651516385123589e-05),
        "slot5.lm_head.weight": (0.231308726943098,
            0.09504710283476601),
    },
}

TRACE_PER_BATCH = {
    ("1f1b", 2, 1, 2): (
        "s0>1F0 s0>1F1 r1<0F0 s1>0B0 r1<0F1 s1>0B1 r0<1B0 s0>1F2 r0<1B1 "
        "s0>1F3 r1<0F2 s1>0B2 r1<0F3 s1>0B3 r0<1B2 r0<1B3 "
    ),
    ("gpipe", 2, 1, 2): (
        "s0>1F0 s0>1F1 s0>1F2 s0>1F3 r1<0F0 r1<0F1 r1<0F2 r1<0F3 s1>0B0 "
        "s1>0B1 s1>0B2 s1>0B3 r0<1B0 r0<1B1 r0<1B2 r0<1B3 "
    ),
    ("1f1b", 4, 2, 1): (
        "s0>1F0 s0>1F1 s0>1F2 s0>1F3 r1<0F0 s1>2F0 r1<0F1 s1>2F1 r1<0F2 "
        "s1>2F2 r2<1F0 s2>3F0 r2<1F1 s2>3F1 r3<2F0 s3>2B0 r3<2F1 s3>2B1 "
        "s4>5F0 s4>5F1 s4>5F2 s4>5F3 r5<4F0 s5>6F0 r5<4F1 s5>6F1 r5<4F2 "
        "s5>6F2 r6<5F0 s6>7F0 r6<5F1 s6>7F1 r7<6F0 s7>6B0 r7<6F1 s7>6B1 "
        "r2<3B0 s2>1B0 r2<1F2 s2>3F2 r2<3B1 s2>1B1 r3<2F2 s3>2B2 r6<7B0 "
        "s6>5B0 r6<5F2 s6>7F2 r6<7B1 s6>5B1 r7<6F2 s7>6B2 r1<2B0 s1>0B0 "
        "r1<0F3 s1>2F3 r1<2B1 s1>0B1 r2<1F3 s2>3F3 r2<3B2 s2>1B2 r3<2F3 "
        "s3>2B3 r5<6B0 s5>4B0 r5<4F3 s5>6F3 r5<6B1 s5>4B1 r6<5F3 s6>7F3 "
        "r6<7B2 s6>5B2 r7<6F3 s7>6B3 r0<1B0 r0<1B1 r1<2B2 s1>0B2 r2<3B3 "
        "s2>1B3 r4<5B0 r4<5B1 r5<6B2 s5>4B2 r6<7B3 s6>5B3 r0<1B2 r1<2B3 "
        "s1>0B3 r4<5B2 r5<6B3 s5>4B3 r0<1B3 r4<5B3 c0 c4 c0 c4 c0 c4 c0 "
        "c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 "
        "c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 "
        "c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 "
        "c1 c5 c1 c5 c1 c5 c2 c6 c2 c6 c2 c6 c2 c6 c2 c6 c2 c6 c2 c6 c2 "
        "c6 c2 c6 c2 c6 c2 c6 c2 c6 c3 c7 c3 c7 c3 c7 "
    ),
    ("gpipe", 4, 2, 1): (
        "s0>1F0 s0>1F1 s0>1F2 s0>1F3 r1<0F0 s1>2F0 r1<0F1 s1>2F1 r1<0F2 "
        "s1>2F2 r1<0F3 s1>2F3 r2<1F0 s2>3F0 r2<1F1 s2>3F1 r2<1F2 s2>3F2 "
        "r2<1F3 s2>3F3 r3<2F0 r3<2F1 r3<2F2 r3<2F3 s3>2B0 s3>2B1 s3>2B2 "
        "s3>2B3 s4>5F0 s4>5F1 s4>5F2 s4>5F3 r5<4F0 s5>6F0 r5<4F1 s5>6F1 "
        "r5<4F2 s5>6F2 r5<4F3 s5>6F3 r6<5F0 s6>7F0 r6<5F1 s6>7F1 r6<5F2 "
        "s6>7F2 r6<5F3 s6>7F3 r7<6F0 r7<6F1 r7<6F2 r7<6F3 s7>6B0 s7>6B1 "
        "s7>6B2 s7>6B3 r2<3B0 s2>1B0 r2<3B1 s2>1B1 r2<3B2 s2>1B2 r2<3B3 "
        "s2>1B3 r6<7B0 s6>5B0 r6<7B1 s6>5B1 r6<7B2 s6>5B2 r6<7B3 s6>5B3 "
        "r1<2B0 s1>0B0 r1<2B1 s1>0B1 r1<2B2 s1>0B2 r1<2B3 s1>0B3 r5<6B0 "
        "s5>4B0 r5<6B1 s5>4B1 r5<6B2 s5>4B2 r5<6B3 s5>4B3 r0<1B0 r0<1B1 "
        "r0<1B2 r0<1B3 r4<5B0 r4<5B1 r4<5B2 r4<5B3 c0 c4 c0 c4 c0 c4 c0 "
        "c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 c0 c4 "
        "c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 "
        "c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 c1 c5 "
        "c1 c5 c1 c5 c1 c5 c2 c6 c2 c6 c2 c6 c2 c6 c2 c6 c2 c6 c2 c6 c2 "
        "c6 c2 c6 c2 c6 c2 c6 c2 c6 c3 c7 c3 c7 c3 c7 "
    ),
}
