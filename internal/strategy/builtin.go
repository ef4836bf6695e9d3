package strategy

import (
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/mobile"
)

// placementFunc adapts a plain function to the Placement interface.
type placementFunc struct {
	name string
	fn   func(field.Field, PlaceOptions) (core.Placement, error)
}

func (p placementFunc) Name() string { return p.name }
func (p placementFunc) Place(f field.Field, o PlaceOptions) (core.Placement, error) {
	return p.fn(f, o)
}

// movementFunc adapts a controller factory to the Movement interface.
type movementFunc struct {
	name string
	fn   mobile.ControllerFactory
}

func (m movementFunc) Name() string { return m.name }
func (m movementFunc) NewController(id int, cfg mobile.Config) (mobile.Planner, error) {
	return m.fn(id, cfg)
}

// The built-in strategies: the paper's own algorithms behind the common
// interface. The "fra" and "cma" adapters forward their inputs verbatim —
// results through the registry are bit-identical to direct core.FRA /
// mobile.NewController calls, which the identity tests pin.
func init() {
	RegisterPlacement(placementFunc{"fra", placeFRA})
	RegisterPlacement(placementFunc{"cwd", placeCWD})
	RegisterPlacement(placementFunc{"random", placeRandom})
	RegisterPlacement(placementFunc{"uniform", placeUniform})
	RegisterMovement(movementFunc{"cma", mobile.DefaultFactory})
}

// placeFRA is the paper's Foresighted Refinement Algorithm, exactly as
// the sweep's static phase (the Fig. 7 executor) invokes it (corner-anchored
// reconstruction, metrics passthrough). The Seed is ignored: FRA is
// deterministic.
func placeFRA(f field.Field, o PlaceOptions) (core.Placement, error) {
	gridN := o.GridN
	if gridN == 0 {
		gridN = 100
	}
	return core.FRA(f, core.FRAOptions{
		K: o.K, Rc: o.Rc, GridN: gridN, AnchorCorners: true, Metrics: o.Metrics,
	})
}

// placeCWD is the curvature-weighted distribution (paper Section 5.1):
// density-weighted Lloyd relaxation over the |G| map. Rs and the
// iteration count keep core.DefaultCWDOptions' values; Rc, lattice and
// seed come from the common options.
func placeCWD(f field.Field, o PlaceOptions) (core.Placement, error) {
	if err := validatePlace(o); err != nil {
		return core.Placement{}, err
	}
	opts := core.DefaultCWDOptions(o.K)
	opts.Rc = o.Rc
	if o.GridN > 0 {
		opts.GridN = o.GridN
	}
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	p, err := core.CWDPlacement(f, opts)
	if err != nil {
		return core.Placement{}, err
	}
	p.Anchors = cornerAnchors(f.Bounds())
	return p, nil
}

// placeRandom is the paper's random-deployment baseline (Fig. 7's
// "random" curve), corner-anchored like every non-FRA strategy so its δ
// integrates over a whole-region reconstruction.
func placeRandom(f field.Field, o PlaceOptions) (core.Placement, error) {
	if err := validatePlace(o); err != nil {
		return core.Placement{}, err
	}
	p := core.RandomPlacement(f.Bounds(), o.K, o.Seed)
	p.Anchors = cornerAnchors(f.Bounds())
	return p, nil
}

// placeUniform is the centered-grid uniform distribution of Fig. 3(b).
func placeUniform(f field.Field, o PlaceOptions) (core.Placement, error) {
	if err := validatePlace(o); err != nil {
		return core.Placement{}, err
	}
	p := core.UniformPlacement(f.Bounds(), o.K)
	p.Anchors = cornerAnchors(f.Bounds())
	return p, nil
}
