"""The BFV somewhat-homomorphic encryption scheme (paper Section 3).

This package is the paper's primary workload: the
Brakerski–Fan–Vercauteren scheme restricted to the operations the paper
implements — encryption, decryption, homomorphic addition, and
homomorphic multiplication with relinearization — at the paper's three
security levels (27-, 54-, and 109-bit, Section 3/4.1).

Module map: :mod:`~repro.core.params` (parameter sets),
:mod:`~repro.core.keys` (key generation), :mod:`~repro.core.encoder`
(batch, integer and binary encoders), :mod:`~repro.core.encryptor`,
:mod:`~repro.core.decryptor`, :mod:`~repro.core.evaluator`,
:mod:`~repro.core.galois` (slot rotations), :mod:`~repro.core.modswitch`,
:mod:`~repro.core.noise` (the measured budget) and
:mod:`~repro.core.planner` (the analytic growth estimates and circuit
planning).

Typical round trip::

    from repro.core.decryptor import Decryptor
    from repro.core.encoder import BatchEncoder
    from repro.core.encryptor import Encryptor
    from repro.core.evaluator import Evaluator
    from repro.core.keys import KeyGenerator
    from repro.core.params import BFVParameters

    params = BFVParameters.security_level(109)
    keys = KeyGenerator(params, seed=7).generate()
    encoder = BatchEncoder(params)
    enc = Encryptor(params, keys.public_key, seed=8)
    dec = Decryptor(params, keys.secret_key)
    ev = Evaluator(params, relin_key=keys.relin_key)

    ct_a = enc.encrypt(encoder.encode([1, 2, 3]))
    ct_b = enc.encrypt(encoder.encode([10, 20, 30]))
    total = ev.add(ct_a, ct_b)
    prod = ev.multiply(ct_a, ct_b)
    assert encoder.decode(dec.decrypt(total))[:3] == [11, 22, 33]
    assert encoder.decode(dec.decrypt(prod))[:3] == [10, 40, 90]

This package init imports none of them: import each name from its
module, so loading the parameter sets does not load the engine.
"""
