package main

// pinnedSeed is the seed the outcomes below were recorded at, at full
// size. A run at this seed must reproduce them exactly; a change to the
// simulator that moves any of them changes simulated behaviour, which a
// pure speed-up must not.
const pinnedSeed = 1

// fig4Pin is the outcome of one full-size facility-10k job.
var fig4Pin = fingerprint{
	EnergyJ: 1.7141477772566069e+10, Events: 14174, PeakPending: 6683,
	Decisions: 360, SwitchOns: 6226, SwitchOffs: 2499,
}

// servePin is the outcome of one full-size serve-2k job.
var servePin = fingerprint{
	EnergyJ: 7.681495493557781e+09, Events: 20191, PeakPending: 1525,
	Decisions: 720, SwitchOns: 4530, SwitchOffs: 3380,
	OfferedUsers: 7.086238306452813e+08, GoodputUsers: 7.078895184439374e+08, BreakerTrips: 1,
}

// geoPin is the outcome of one full-size geo-4x10k job.
var geoPin = geoPrint{
	Epochs: 48, EnergyKWh: 244610.31996009403, PeakPowerW: 1.147910333841135e+07,
	OfferedUsers: 3.1556084839486664e+10, GoodputUsers: 3.0994921118497726e+10,
	RejectedFrac: 0.003772779833121258, GramsCO2e: 1.1657442643704039e+08,
	BreakerTrips: 4, Events: 643905, PeakPending: 10002, Decisions: 5760, Switches: 638206,
}

// suitePin is the outcome of a suite pass.
var suitePin = suitePrint{Events: 228873, PeakPending: 480, Digest: "e96f9ac3bf6d1a07"}

// pinAt returns pin when rc runs at the pinned seed and the full size,
// nil otherwise.
func pinAt[T any](rc runConfig, pin T) *T {
	if rc.seed != pinnedSeed || !rc.size.full {
		return nil
	}
	return &pin
}
