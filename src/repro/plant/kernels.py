"""Fused per-unit step kernels for the flowsheet's default backend.

``Flowsheet(backend="auto")`` swaps each unit's object-building
``step()`` for a closure compiled here: stream hops become raw
``(molar_flow, fractions, temperature, pressure)`` tuples flowing
between :class:`~repro.plant.ports.StreamPort` cells, so steady-state
stepping allocates no ``Stream``/``Composition`` objects at all.  The
separator and column kernels are unrolled over the stock seven-species
vector; at any other species width those units step through their
scalar ``step()``.

Bit-identity contract: every kernel replays its unit's ``step()``
float operations in the exact same order -- the sequential
accumulations, the ``total == 1.0`` divide-skip of
``Composition._normalized``, the re-normalization hidden inside
``Stream.copy()``, down to ``a * b / c`` association.  The golden
"plant" digest and the backend-conformance tests hold the kernels to
the scalar reference (``backend="py"``).
"""

from __future__ import annotations

from repro.plant.components import N_SPECIES, _PURE_C1
from repro.plant.ports import StreamPort
from repro.plant.thermo import HEAT_CAPACITY_J_PER_MOL_K, _split_fractions
from repro.plant.units.column import _BASE_RECOVERY, _C3_I, _IC4_I, _NC4_I

# Composition({"C3": 1.0}).fractions, precomputed (total is exactly 1.0,
# so the constructor adopts the vector unchanged).
_C3_PURE: list[float] = [1.0 if i == _C3_I else 0.0
                         for i in range(N_SPECIES)]

# The scalarized fast paths unroll species vectors into locals; they
# only apply at the stock species count.
_SEVEN = N_SPECIES == 7


def _read(source):
    """Raw ``(mf, fractions, t, p)`` of a stream source; ports skip
    materialization, plain callables unpack the stream they return."""
    if type(source) is StreamPort:
        s = source.stream
        if s is None:
            return source.mf, source.fr, source.t, source.p
    else:
        s = source()
    return (s.molar_flow, s.composition.fractions, s.temperature_c,
            s.pressure_kpa)


def _renorm(fractions) -> list[float]:
    """``Stream.copy()``'s composition re-normalization on a raw
    fraction vector: bit-for-bit the
    ``Composition._normalized(fr, copy=True)`` path.  Kernels never
    mutate fraction vectors in place (each step builds fresh lists), so
    the already-normalized case can return the input aliased instead of
    copied -- same values, one allocation less."""
    total = 0.0
    for v in fractions:
        total += v
    if total == 1.0:
        return fractions
    return [v / total for v in fractions]


def _mix_raw(live):
    """``Stream.mix`` on raw tuples; ``live`` holds the streams with
    positive flow, in order, and must be non-empty.

    The one- and two-stream cases (every mixer in the gas plant) are
    unrolled; the ``0.0 +`` seeds reproduce the generic accumulator's
    first iteration exactly (flows and per-stream temperatures are
    never ``-0.0``, but the seed keeps the float ops literally equal).
    """
    n = len(live)
    if n == 1:
        mf, fractions, t, p = live[0]
        total = 0.0 + mf
        temp = 0.0 + t * mf / total
        if _SEVEN:
            f0, f1, f2, f3, f4, f5, f6 = fractions
            g0 = 0.0 + mf * f0
            g1 = 0.0 + mf * f1
            g2 = 0.0 + mf * f2
            g3 = 0.0 + mf * f3
            g4 = 0.0 + mf * f4
            g5 = 0.0 + mf * f5
            g6 = 0.0 + mf * f6
            ftotal = 0.0 + g0 + g1 + g2 + g3 + g4 + g5 + g6
            if ftotal != 1.0:
                flows = [g0 / ftotal, g1 / ftotal, g2 / ftotal,
                         g3 / ftotal, g4 / ftotal, g5 / ftotal,
                         g6 / ftotal]
            else:
                flows = [g0, g1, g2, g3, g4, g5, g6]
            return total, flows, temp, p
        flows = [0.0 + mf * f for f in fractions]
        ftotal = 0.0
        for v in flows:
            ftotal += v
        if ftotal != 1.0:
            flows = [v / ftotal for v in flows]
        return total, flows, temp, p
    if n == 2:
        (amf, afr, at, ap), (bmf, bfr, bt, bp) = live
        total = 0.0 + amf + bmf
        temp = 0.0 + at * amf / total + bt * bmf / total
        pressure = bp if bp < ap else ap
        if _SEVEN:
            a0, a1, a2, a3, a4, a5, a6 = afr
            c0, c1, c2, c3, c4, c5, c6 = bfr
            g0 = 0.0 + amf * a0 + bmf * c0
            g1 = 0.0 + amf * a1 + bmf * c1
            g2 = 0.0 + amf * a2 + bmf * c2
            g3 = 0.0 + amf * a3 + bmf * c3
            g4 = 0.0 + amf * a4 + bmf * c4
            g5 = 0.0 + amf * a5 + bmf * c5
            g6 = 0.0 + amf * a6 + bmf * c6
            ftotal = 0.0 + g0 + g1 + g2 + g3 + g4 + g5 + g6
            if ftotal != 1.0:
                flows = [g0 / ftotal, g1 / ftotal, g2 / ftotal,
                         g3 / ftotal, g4 / ftotal, g5 / ftotal,
                         g6 / ftotal]
            else:
                flows = [g0, g1, g2, g3, g4, g5, g6]
            return total, flows, temp, pressure
        flows = [0.0 + amf * a + bmf * b for a, b in zip(afr, bfr)]
        ftotal = 0.0
        for v in flows:
            ftotal += v
        if ftotal != 1.0:
            flows = [v / ftotal for v in flows]
        return total, flows, temp, pressure
    total = 0.0
    for raw in live:
        total += raw[0]
    flows = [0.0] * N_SPECIES
    temp = 0.0
    for mf, fractions, t, _ in live:
        temp += t * mf / total
        for i in range(N_SPECIES):
            flows[i] += mf * fractions[i]
    pressure = live[0][3]
    for raw in live[1:]:
        if raw[3] < pressure:
            pressure = raw[3]
    ftotal = 0.0
    for v in flows:
        ftotal += v
    if ftotal != 1.0:
        flows = [v / ftotal for v in flows]
    return total, flows, temp, pressure


# ----------------------------------------------------------------------
# Mixer
# ----------------------------------------------------------------------
def mixer_kernel(unit):
    port = unit.outlet_port

    def kernel(dt_sec: float) -> None:
        live = []
        for source in unit.inlets:
            raw = _read(source)
            if raw[0] > 0:
                live.append(raw)
        if live:
            port.mf, port.fr, port.t, port.p = _mix_raw(live)
        else:
            port.mf = 0.0
            port.fr = _PURE_C1
            port.t = 25.0
            port.p = 101.3
        port.stream = None
    return kernel


# ----------------------------------------------------------------------
# Two-phase separator
# ----------------------------------------------------------------------
def _separator_kernel7(unit):
    """Scalarized pure-python separator kernel, unrolled for the fixed
    seven-species width: every intermediate species vector lives in
    scalar locals, so the hot path allocates only the two output
    fraction lists and the holdup write-back.  Float-op order is the
    scalar ``step()``'s, literally -- unrolled ``a0 + a1 + ...`` chains
    equal ``sum(list)`` bit-for-bit because every summed vector here is
    non-negative (``0 + a0 == a0`` can only differ for ``-0.0``)."""
    valve = unit.liquid_valve
    vport = unit.vapor_out_port
    lport = unit.liquid_out_port
    backpressure = unit.drain_backpressure
    track_feed_t = unit._fixed_temperature_c is None
    valve_cv = valve.cv_mol_s
    valve_tau = valve.actuator_tau_sec
    pressure = unit.pressure_kpa
    blow_by_fraction = unit.blow_by_fraction
    capacity = unit.holdup_capacity_mol
    p0, p1, p2, p3, p4, p5, p6 = _PURE_C1
    memo_t = memo_splits = None

    def kernel(dt_sec: float) -> None:
        nonlocal memo_t, memo_splits
        # ControlValve.step inlined (tau is fixed at construction).
        if valve_tau <= 0:
            valve.opening_pct = valve.command_pct
        else:
            alpha = dt_sec / (valve_tau + dt_sec)
            valve.opening_pct += alpha * (valve.command_pct
                                          - valve.opening_pct)
        # _read() inlined.
        src = unit.feed
        if type(src) is StreamPort:
            s = src.stream
            if s is None:
                mf = src.mf
                fractions = src.fr
                feed_t = src.t
            else:
                mf = s.molar_flow
                fractions = s.composition.fractions
                feed_t = s.temperature_c
        else:
            s = src()
            mf = s.molar_flow
            fractions = s.composition.fractions
            feed_t = s.temperature_c
        if track_feed_t:
            unit.temperature_c = feed_t
        temperature = unit.temperature_c
        # flash() inlined; last-key memo over the `_split_fractions`
        # cache (a converged separator flashes at one temperature).
        if temperature == memo_t:
            splits = memo_splits
        else:
            splits = _split_fractions(temperature, pressure)
            memo_t, memo_splits = temperature, splits
        s0, s1, s2, s3, s4, s5, s6 = splits
        f0, f1, f2, f3, f4, f5, f6 = fractions
        w0 = mf * f0
        w1 = mf * f1
        w2 = mf * f2
        w3 = mf * f3
        w4 = mf * f4
        w5 = mf * f5
        w6 = mf * f6
        l0 = w0 * s0
        l1 = w1 * s1
        l2 = w2 * s2
        l3 = w3 * s3
        l4 = w4 * s4
        l5 = w5 * s5
        l6 = w6 * s6
        v0 = w0 - l0
        v1 = w1 - l1
        v2 = w2 - l2
        v3 = w3 - l3
        v4 = w4 - l4
        v5 = w5 - l5
        v6 = w6 - l6
        vt = v0 + v1 + v2 + v3 + v4 + v5 + v6
        lt = l0 + l1 + l2 + l3 + l4 + l5 + l6
        if vt > 1e-12:
            v_mf = vt
            if vt == 1.0:
                v_fr = [v0, v1, v2, v3, v4, v5, v6]
            else:
                v_fr = [v0 / vt, v1 / vt, v2 / vt, v3 / vt, v4 / vt,
                        v5 / vt, v6 / vt]
        else:
            v_mf = 0.0
            v_fr = _PURE_C1
        if lt > 1e-12:
            l_mf = lt
            if lt == 1.0:
                lf0 = l0
                lf1 = l1
                lf2 = l2
                lf3 = l3
                lf4 = l4
                lf5 = l5
                lf6 = l6
            else:
                lf0 = l0 / lt
                lf1 = l1 / lt
                lf2 = l2 / lt
                lf3 = l3 / lt
                lf4 = l4 / lt
                lf5 = l5 / lt
                lf6 = l6 / lt
        else:
            l_mf = 0.0
            lf0 = p0
            lf1 = p1
            lf2 = p2
            lf3 = p3
            lf4 = p4
            lf5 = p5
            lf6 = p6
        # Condensed liquid accumulates in the holdup.
        h0, h1, h2, h3, h4, h5, h6 = unit.holdup
        h0 = h0 + (l_mf * lf0) * dt_sec
        h1 = h1 + (l_mf * lf1) * dt_sec
        h2 = h2 + (l_mf * lf2) * dt_sec
        h3 = h3 + (l_mf * lf3) * dt_sec
        h4 = h4 + (l_mf * lf4) * dt_sec
        h5 = h5 + (l_mf * lf5) * dt_sec
        h6 = h6 + (l_mf * lf6) * dt_sec
        requested = valve_cv * valve.opening_pct / 100.0
        if backpressure is not None:
            # max(0.0, min(1.0, bp)) as conditionals.
            bp = backpressure()
            bp = bp if bp < 1.0 else 1.0
            requested *= bp if bp > 0.0 else 0.0
        ht = h0 + h1 + h2 + h3 + h4 + h5 + h6
        drainable = ht / dt_sec
        drained = drainable if drainable < requested else requested
        lo_t = temperature
        lo_p = pressure
        if drained > 0 and ht > 0:
            fraction = drained * dt_sec / ht
            if fraction > 1.0:
                fraction = 1.0
            o0 = h0 * fraction / dt_sec
            o1 = h1 * fraction / dt_sec
            o2 = h2 * fraction / dt_sec
            o3 = h3 * fraction / dt_sec
            o4 = h4 * fraction / dt_sec
            o5 = h5 * fraction / dt_sec
            o6 = h6 * fraction / dt_sec
            keep = 1.0 - fraction
            h0 = h0 * keep
            h1 = h1 * keep
            h2 = h2 * keep
            h3 = h3 * keep
            h4 = h4 * keep
            h5 = h5 * keep
            h6 = h6 * keep
            ot = o0 + o1 + o2 + o3 + o4 + o5 + o6
            if ot > 1e-12:
                lo_mf = ot
                if ot == 1.0:
                    lo_fr = [o0, o1, o2, o3, o4, o5, o6]
                else:
                    lo_fr = [o0 / ot, o1 / ot, o2 / ot, o3 / ot, o4 / ot,
                             o5 / ot, o6 / ot]
            else:
                lo_mf = ot
                lo_fr = [lf0, lf1, lf2, lf3, lf4, lf5, lf6]
        else:
            lo_mf = 0.0
            lo_fr = _PURE_C1
        # Gas blow-by: unmet valve demand pulls vapor into the liquid line.
        shortfall = requested - drained
        if shortfall < 0.0:
            shortfall = 0.0
        blow_by = shortfall * blow_by_fraction
        if blow_by > 1e-9 and v_mf > 1e-9:
            taken = v_mf if v_mf < blow_by else blow_by
            unit.blow_by_flow = taken
            live = ([(lo_mf, lo_fr, lo_t, lo_p)] if lo_mf > 0 else [])
            live.append((taken, v_fr, temperature, pressure))
            lo_mf, lo_fr, lo_t, lo_p = _mix_raw(live)
            v_mf = v_mf - taken
        else:
            unit.blow_by_flow = 0.0
        # Overflow protection: liquid carried over with the vapor.
        ht = h0 + h1 + h2 + h3 + h4 + h5 + h6
        if ht > capacity:
            excess = ht - capacity
            scale = capacity / ht
            h0 = h0 * scale
            h1 = h1 * scale
            h2 = h2 * scale
            h3 = h3 * scale
            h4 = h4 * scale
            h5 = h5 * scale
            h6 = h6 * scale
            unit.overflow_mol += excess
        unit.holdup = [h0, h1, h2, h3, h4, h5, h6]
        vport.mf = v_mf
        vport.fr = v_fr
        vport.t = temperature
        vport.p = pressure
        vport.stream = None
        lport.mf = lo_mf
        lport.fr = lo_fr
        lport.t = lo_t
        lport.p = lo_p
        lport.stream = None
    return kernel


def separator_kernel(unit):
    if _SEVEN:
        return _separator_kernel7(unit)
    return None  # exotic species width: fall back to scalar step()


# ----------------------------------------------------------------------
# Gas/gas exchanger and chiller
# ----------------------------------------------------------------------
def gasgas_kernel(unit):
    hport = unit.hot_out_port
    cport = unit.cold_out_port
    effectiveness = unit.effectiveness

    def kernel(dt_sec: float) -> None:
        h_mf, h_fr, h_t, h_p = _read(unit.hot_inlet)
        c_mf, c_fr, c_t, c_p = _read(unit.cold_inlet)
        if h_mf <= 1e-9 or c_mf <= 1e-9:
            hport.set_raw(h_mf, _renorm(h_fr), h_t, h_p)
            cport.set_raw(c_mf, _renorm(c_fr), c_t, c_p)
            unit.duty_watts = 0.0
            return
        c_min = c_mf if c_mf < h_mf else h_mf
        q_max = c_min * (h_t - c_t)
        q = effectiveness * (q_max if q_max > 0.0 else 0.0)
        h_t_out = h_t - q / h_mf
        c_t_out = c_t + q / c_mf
        hport.mf = h_mf
        hport.fr = _renorm(h_fr)
        hport.t = h_t_out
        hport.p = h_p
        hport.stream = None
        cport.mf = c_mf
        cport.fr = _renorm(c_fr)
        cport.t = c_t_out
        cport.p = c_p
        cport.stream = None
        unit.duty_watts = h_mf * HEAT_CAPACITY_J_PER_MOL_K * (h_t - h_t_out)
    return kernel


def chiller_kernel(unit):
    port = unit.outlet_port
    tau_sec = unit.tau_sec
    t_max_c = unit.t_max_c
    span = unit.t_max_c - unit.t_min_c

    def kernel(dt_sec: float) -> None:
        alpha = dt_sec / (tau_sec + dt_sec)
        target = t_max_c - span * unit.duty_pct / 100.0
        unit.outlet_temperature_c += alpha * (
            target - unit.outlet_temperature_c)
        mf, fractions, t, p = _read(unit.inlet)
        port.mf = mf
        port.fr = _renorm(fractions)
        port.t = unit.outlet_temperature_c
        port.p = p
        port.stream = None
        unit.duty_watts = abs(mf * HEAT_CAPACITY_J_PER_MOL_K
                              * (t - unit.outlet_temperature_c))
    return kernel


# ----------------------------------------------------------------------
# Sales-gas vapor header (class lives in gas_plant.py)
# ----------------------------------------------------------------------
def vapor_header_kernel(unit):
    valve = unit.valve
    port = unit.outlet_port
    valve_cv = valve.cv_mol_s
    valve_tau = valve.actuator_tau_sec
    volume = unit.volume_mol_per_kpa

    def kernel(dt_sec: float) -> None:
        if valve_tau <= 0:
            valve.opening_pct = valve.command_pct
        else:
            alpha = dt_sec / (valve_tau + dt_sec)
            valve.opening_pct += alpha * (valve.command_pct
                                          - valve.opening_pct)
        mf, fractions, t, _p = _read(unit.inlet)
        requested = valve_cv * valve.opening_pct / 100.0
        excess = unit.pressure_kpa - 1000.0
        supply = mf + (excess if excess > 0.0 else 0.0) * 0.05
        out_flow = supply if supply < requested else requested
        pressure = unit.pressure_kpa + (mf - out_flow) * dt_sec / volume
        unit.pressure_kpa = pressure if pressure > 200.0 else 200.0
        port.mf = out_flow
        if mf > 0:
            port.fr = _renorm(fractions)
            port.t = t
        else:
            port.fr = _PURE_C1
            port.t = 25.0
        port.p = unit.pressure_kpa
        port.stream = None
    return kernel


# ----------------------------------------------------------------------
# Depropanizer column
# ----------------------------------------------------------------------
def _column_kernel7(unit):
    """Scalarized pure-python depropanizer kernel (see
    :func:`_separator_kernel7` for the unrolling contract)."""
    dv = unit.distillate_valve
    bv = unit.bottoms_valve
    gv = unit.overhead_gas_valve
    dv_cv, bv_cv, gv_cv = dv.cv_mol_s, bv.cv_mol_s, gv.cv_mol_s
    dv_tau, bv_tau, gv_tau = (dv.actuator_tau_sec, bv.actuator_tau_sec,
                              gv.actuator_tau_sec)
    gport = unit.overhead_gas_out_port
    dport = unit.distillate_out_port
    bport = unit.bottoms_out_port
    reboiler_tau = unit.reboiler_tau_sec
    pressure_volume = unit.pressure_volume_mol_per_kpa
    drum_capacity = unit.drum_capacity_mol
    sump_capacity = unit.sump_capacity_mol

    def kernel(dt_sec: float) -> None:
        # ControlValve.step inlined for the three product valves.
        if dv_tau <= 0:
            dv.opening_pct = dv.command_pct
        else:
            alpha = dt_sec / (dv_tau + dt_sec)
            dv.opening_pct += alpha * (dv.command_pct - dv.opening_pct)
        if bv_tau <= 0:
            bv.opening_pct = bv.command_pct
        else:
            alpha = dt_sec / (bv_tau + dt_sec)
            bv.opening_pct += alpha * (bv.command_pct - bv.opening_pct)
        if gv_tau <= 0:
            gv.opening_pct = gv.command_pct
        else:
            alpha = dt_sec / (gv_tau + dt_sec)
            gv.opening_pct += alpha * (gv.command_pct - gv.opening_pct)
        # Reboiler temperature dynamics: duty 0..100 % -> 80..110 degC.
        target = 80.0 + 30.0 * unit.reboil_duty_pct / 100.0
        alpha = dt_sec / (reboiler_tau + dt_sec)
        unit.temperature_c += alpha * (target - unit.temperature_c)
        # _read() inlined.
        src = unit.feed
        if type(src) is StreamPort:
            s = src.stream
            if s is None:
                feed_mf = src.mf
                feed_fr = src.fr
            else:
                feed_mf = s.molar_flow
                feed_fr = s.composition.fractions
        else:
            s = src()
            feed_mf = s.molar_flow
            feed_fr = s.composition.fractions
        shift = (unit.temperature_c - 95.0) / 10.0 * 0.02
        rec = list(_BASE_RECOVERY)
        r = rec[_C3_I] + shift
        r = r if r > 0.5 else 0.5
        rec[_C3_I] = r if r < 0.999 else 0.999
        r = rec[_IC4_I] + shift
        r = r if r > 0.0 else 0.0
        rec[_IC4_I] = r if r < 0.5 else 0.5
        r = rec[_NC4_I] + shift
        r = r if r > 0.0 else 0.0
        rec[_NC4_I] = r if r < 0.5 else 0.5
        r0, r1, r2, r3, r4, r5, r6 = rec
        f0, f1, f2, f3, f4, f5, f6 = feed_fr
        w0 = feed_mf * f0
        w1 = feed_mf * f1
        w2 = feed_mf * f2
        w3 = feed_mf * f3
        w4 = feed_mf * f4
        w5 = feed_mf * f5
        w6 = feed_mf * f6
        o0 = w0 * r0
        o1 = w1 * r1
        o2 = w2 * r2
        o3 = w3 * r3
        o4 = w4 * r4
        o5 = w5 * r5
        o6 = w6 * r6
        b0 = w0 * (1.0 - r0)
        b1 = w1 * (1.0 - r1)
        b2 = w2 * (1.0 - r2)
        b3 = w3 * (1.0 - r3)
        b4 = w4 * (1.0 - r4)
        b5 = w5 * (1.0 - r5)
        b6 = w6 * (1.0 - r6)
        ot = o0 + o1 + o2 + o3 + o4 + o5 + o6
        excess = unit.pressure_kpa - 1200.0
        supply = ot * 0.35 + (excess if excess > 0.0 else 0.0) * 0.02
        requested = gv_cv * gv.opening_pct / 100.0
        gas_out_flow = supply if supply < requested else requested
        pressure = unit.pressure_kpa + (ot * 0.3 - gas_out_flow) \
            * dt_sec / pressure_volume
        unit.pressure_kpa = pressure if pressure > 200.0 else 200.0
        if ot > 1e-9:
            if ot == 1.0:
                og_fr = [o0, o1, o2, o3, o4, o5, o6]
            else:
                og_fr = [o0 / ot, o1 / ot, o2 / ot, o3 / ot, o4 / ot,
                         o5 / ot, o6 / ot]
        else:
            og_fr = _C3_PURE
        gport.mf = gas_out_flow
        gport.fr = og_fr
        gport.t = 40.0
        gport.p = unit.pressure_kpa
        gport.stream = None
        # Condensed overhead (the rest) accumulates in the reflux drum.
        condensed = ot - gas_out_flow
        if condensed < 0.0:
            condensed = 0.0
        d0, d1, d2, d3, d4, d5, d6 = unit.drum_holdup
        if ot > 1e-9:
            d0 = d0 + (o0 / ot) * condensed * dt_sec
            d1 = d1 + (o1 / ot) * condensed * dt_sec
            d2 = d2 + (o2 / ot) * condensed * dt_sec
            d3 = d3 + (o3 / ot) * condensed * dt_sec
            d4 = d4 + (o4 / ot) * condensed * dt_sec
            d5 = d5 + (o5 / ot) * condensed * dt_sec
            d6 = d6 + (o6 / ot) * condensed * dt_sec
        s0, s1, s2, s3, s4, s5, s6 = unit.sump_holdup
        s0 = s0 + b0 * dt_sec
        s1 = s1 + b1 * dt_sec
        s2 = s2 + b2 * dt_sec
        s3 = s3 + b3 * dt_sec
        s4 = s4 + b4 * dt_sec
        s5 = s5 + b5 * dt_sec
        s6 = s6 + b6 * dt_sec
        # _drain on the drum, inlined.
        dtot = d0 + d1 + d2 + d3 + d4 + d5 + d6
        req = dv_cv * dv.opening_pct / 100.0
        drainable = dtot / dt_sec
        drained = drainable if drainable < req else req
        if drained <= 1e-12 or dtot <= 1e-12:
            d_mf = 0.0
            d_fr = _PURE_C1
        else:
            fraction = drained * dt_sec / dtot
            if fraction > 1.0:
                fraction = 1.0
            x0 = d0 * fraction / dt_sec
            x1 = d1 * fraction / dt_sec
            x2 = d2 * fraction / dt_sec
            x3 = d3 * fraction / dt_sec
            x4 = d4 * fraction / dt_sec
            x5 = d5 * fraction / dt_sec
            x6 = d6 * fraction / dt_sec
            keep = 1.0 - fraction
            d0 = d0 * keep
            d1 = d1 * keep
            d2 = d2 * keep
            d3 = d3 * keep
            d4 = d4 * keep
            d5 = d5 * keep
            d6 = d6 * keep
            d_mf = x0 + x1 + x2 + x3 + x4 + x5 + x6
            if d_mf == 1.0:
                d_fr = [x0, x1, x2, x3, x4, x5, x6]
            else:
                d_fr = [x0 / d_mf, x1 / d_mf, x2 / d_mf, x3 / d_mf,
                        x4 / d_mf, x5 / d_mf, x6 / d_mf]
        dport.mf = d_mf
        dport.fr = d_fr
        dport.t = 40.0
        dport.p = unit.pressure_kpa
        dport.stream = None
        # _drain on the sump, inlined.
        stot = s0 + s1 + s2 + s3 + s4 + s5 + s6
        req = bv_cv * bv.opening_pct / 100.0
        drainable = stot / dt_sec
        drained = drainable if drainable < req else req
        if drained <= 1e-12 or stot <= 1e-12:
            b_mf = 0.0
            b_fr = _PURE_C1
        else:
            fraction = drained * dt_sec / stot
            if fraction > 1.0:
                fraction = 1.0
            x0 = s0 * fraction / dt_sec
            x1 = s1 * fraction / dt_sec
            x2 = s2 * fraction / dt_sec
            x3 = s3 * fraction / dt_sec
            x4 = s4 * fraction / dt_sec
            x5 = s5 * fraction / dt_sec
            x6 = s6 * fraction / dt_sec
            keep = 1.0 - fraction
            s0 = s0 * keep
            s1 = s1 * keep
            s2 = s2 * keep
            s3 = s3 * keep
            s4 = s4 * keep
            s5 = s5 * keep
            s6 = s6 * keep
            b_mf = x0 + x1 + x2 + x3 + x4 + x5 + x6
            if b_mf == 1.0:
                b_fr = [x0, x1, x2, x3, x4, x5, x6]
            else:
                b_fr = [x0 / b_mf, x1 / b_mf, x2 / b_mf, x3 / b_mf,
                        x4 / b_mf, x5 / b_mf, x6 / b_mf]
        bport.mf = b_mf
        bport.fr = b_fr
        bport.t = unit.temperature_c
        bport.p = unit.pressure_kpa
        bport.stream = None
        # _clamp on both holdups.
        dtot = d0 + d1 + d2 + d3 + d4 + d5 + d6
        if dtot > drum_capacity:
            scale = drum_capacity / dtot
            d0 = d0 * scale
            d1 = d1 * scale
            d2 = d2 * scale
            d3 = d3 * scale
            d4 = d4 * scale
            d5 = d5 * scale
            d6 = d6 * scale
        unit.drum_holdup = [d0, d1, d2, d3, d4, d5, d6]
        stot = s0 + s1 + s2 + s3 + s4 + s5 + s6
        if stot > sump_capacity:
            scale = sump_capacity / stot
            s0 = s0 * scale
            s1 = s1 * scale
            s2 = s2 * scale
            s3 = s3 * scale
            s4 = s4 * scale
            s5 = s5 * scale
            s6 = s6 * scale
        unit.sump_holdup = [s0, s1, s2, s3, s4, s5, s6]
    return kernel


def column_kernel(unit):
    if _SEVEN:
        return _column_kernel7(unit)
    return None  # exotic species width: fall back to scalar step()
