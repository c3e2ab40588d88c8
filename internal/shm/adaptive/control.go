// The hysteretic regime controller. It runs on whichever worker
// goroutine happens to close a sampling window (there is no background
// thread — an idle counter makes no decisions), reads the window's mean
// occupancy, votes for a regime, and
// only executes a drain-then-switch once Hold consecutive windows have
// cast the same vote. Escalation and de-escalation use different
// thresholds (the de-escalation edge is half the escalation edge), so a
// load sitting exactly on a boundary cannot make the counter flap.
package adaptive

// control closes one sampling window and maybe switches regime. Called
// from Next after the triggering token has left the in-flight census —
// never before, or the drain below would wait for the caller itself.
// TryLock makes concurrent closers cheap: one worker arbitrates, the
// rest go back to counting.
//
//countnet:coldpath
func (c *Counter) control() {
	if !c.ctlMu.TryLock() {
		return
	}
	defer c.ctlMu.Unlock()
	n := c.occN.Swap(0)
	sum := c.occSum.Swap(0)
	if n == 0 {
		return
	}
	occ := float64(sum) / float64(n)
	//countnet:allow gatevet -- controller snapshot only; the transition re-reads the epoch under switchMu before switching
	ep := c.cur.Load()
	want := c.vote(ep.mode, occ)

	// A same-mode vote normally resets the hysteresis run — except when
	// the Linearizable option finds the live epoch's padding stale: a
	// re-switch into the same mode is then a real transition (it rolls
	// the epoch onto the freshly implied k) and earns the same
	// hysteresis treatment as a mode change.
	repad := want == ep.mode && ep.mode == ModeNetwork &&
		c.opts.Linearizable && c.padK() != ep.padK
	if want == ep.mode && !repad {
		c.agree = 0
		return
	}
	if want == c.want && c.agree > 0 {
		c.agree++
	} else {
		c.want = want
		c.agree = 1
	}
	if c.agree < c.opts.Hold {
		return
	}
	c.agree = 0
	c.switchMu.Lock()
	defer c.switchMu.Unlock()
	// Re-read under switchMu: a forced SwitchTo may have landed between
	// the vote and here, and a stale transition must not undo it.
	if cur := c.cur.Load(); cur.mode == ep.mode && cur.id == ep.id {
		c.switchLocked(want)
	}
}

// vote maps one window's signals to the regime the controller wants.
// The ladder escalates from the direct counter to the network at mean
// occupancy DirectMax and de-escalates only below half of it.
//
// When the user asked for guaranteed ordering (Options.LinearBelow),
// ModeLinear overrides a network vote while the occupancy makes waiting
// affordable: a linear epoch stays linear below the band, and a network
// vote enters ModeLinear only below half the band — the same split-edge
// hysteresis the ladder uses, so the guarantee boundary cannot flap
// either. Direct votes pass through untouched: a single fetch-and-add is
// already linearizable, no waiting required. Within the occupancy ladder
// a linear epoch counts as the network (it is the network, plus
// waiting).
func (c *Counter) vote(mode Mode, occ float64) Mode {
	edge := float64(c.opts.DirectMax)
	if occ < edge && (mode == ModeDirect || occ < edge/2) {
		return ModeDirect
	}
	if lb := float64(c.opts.LinearBelow); lb > 0 {
		switch {
		case mode == ModeLinear && occ < lb:
			return ModeLinear // stay: not high enough to abandon the guarantee
		case occ < lb/2:
			return ModeLinear // enter: waiting is clearly affordable
		}
	}
	return ModeNetwork
}
