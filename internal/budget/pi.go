package budget

// PIController is the control-theoretic allocator modelled on power-capping
// controllers [12]. Each core's grant tracks its request through a
// proportional term; when the tracked grants overshoot the chip budget they
// are rescaled, which is the actuator saturating. The controller is
// stateful across epochs: it keeps each core's tracked grant in the run's
// State.
type PIController struct {
	// Kp is the proportional gain in (0, 1].
	Kp float64
}

var _ Allocator = PIController{}

// NewPIController returns a controller with gain kp (clamped into (0, 1]).
func NewPIController(kp float64) PIController {
	if kp <= 0 || kp > 1 {
		kp = 0.5
	}
	return PIController{Kp: kp}
}

// Name implements Allocator.
func (PIController) Name() string { return "pi" }

// Allocate implements Allocator.
func (c PIController) Allocate(dst []uint32, budgetMW uint64, reqs []Request, st *State) []uint32 {
	dst, grants := extend(dst, len(reqs))
	if len(reqs) == 0 {
		return dst
	}
	// Proportional tracking toward each (possibly tampered) request.
	raw := sized(st.raw, len(reqs))
	st.raw = raw
	var total float64
	for i, r := range reqs {
		p, ok := st.pi.Get(r.Core)
		if !ok {
			p = float64(baseLevelMW(r))
		}
		p += c.Kp * (float64(r.RequestMW) - p)
		if p < 0 {
			p = 0
		}
		raw[i] = p
		total += p
	}
	// Actuator saturation: rescale into the budget.
	scale := 1.0
	if total > float64(budgetMW) && total > 0 {
		scale = float64(budgetMW) / total
	}
	for i, r := range reqs {
		g := raw[i] * scale
		if g > float64(r.RequestMW) {
			g = float64(r.RequestMW)
		}
		grants[i] = uint32(g)
		st.pi.Put(r.Core, raw[i]*scale)
	}
	return dst
}
