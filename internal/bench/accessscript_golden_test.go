package bench

// accessScriptGolden holds TestAccessScriptIdentity's per-node observables,
// recorded on unmodified code — the commit before hybriddsm's
// readWord/readSpan/readRun (and write twins), swdsm's eight accessor
// bodies and smp's touch/touchRun were each folded into one read routine
// and one write routine. A node's read= hash is the same under every
// configuration: all substrates return the same data.
var accessScriptGolden = map[string][]string{
	"smp": {
		"clock=45038 compute=0 memory=25489 protocol=19549 network=0 stolen=0 Reads=1102 Writes=300 BlockReads=30 BlockWrites=16 LockAcquires=2 CacheMisses=21 read=3b7093f9f9815720 events=4:66663d450dfb4994",
		"clock=57197 compute=0 memory=26508 protocol=30689 network=0 stolen=0 Reads=1104 Writes=300 BlockReads=30 BlockWrites=16 LockAcquires=2 CacheMisses=23 read=8d89ecccff004d4f events=4:735395805298a67e",
	},
	"hybrid": {
		"clock=3109858 compute=0 memory=153323 protocol=1058435 network=1898100 stolen=0 Reads=1102 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=16 RemoteReads=397 RemoteWrites=152 Invalidations=15 LockAcquires=2 CacheMisses=17 read=3b7093f9f9815720 events=252:1a84057cb380a42b",
		"clock=4140953 compute=0 memory=153730 protocol=2096423 network=1890800 stolen=0 Reads=1104 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=16 RemoteReads=396 RemoteWrites=136 Invalidations=15 LockAcquires=2 CacheMisses=17 read=8d89ecccff004d4f events=254:cde377d8e668f17b",
	},
	"hybrid-nocache": {
		"clock=3588898 compute=0 memory=21043 protocol=1222755 network=2345100 stolen=0 Reads=1102 Writes=300 BlockReads=30 BlockWrites=16 RemoteReads=915 RemoteWrites=152 LockAcquires=2 CacheMisses=11 read=3b7093f9f9815720 events=268:a107fd1913d4cd73",
		"clock=4785393 compute=0 memory=21450 protocol=2411143 network=2352800 stolen=0 Reads=1104 Writes=300 BlockReads=30 BlockWrites=16 RemoteReads=920 RemoteWrites=136 LockAcquires=2 CacheMisses=11 read=8d89ecccff004d4f events=270:b913d88539677c23",
	},
	"hybrid-sync-writes": {
		"clock=3575858 compute=0 memory=153323 protocol=1202035 network=2220500 stolen=0 Reads=1102 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=16 RemoteReads=397 RemoteWrites=152 Invalidations=15 LockAcquires=2 CacheMisses=17 read=3b7093f9f9815720 events=252:3e89f2883bf74e34",
		"clock=4750553 compute=0 memory=153730 protocol=2418823 network=2178000 stolen=0 Reads=1104 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=16 RemoteReads=396 RemoteWrites=136 Invalidations=15 LockAcquires=2 CacheMisses=17 read=8d89ecccff004d4f events=254:6c03a1d7a6f79163",
	},
	"hybrid-cache2": {
		"clock=3109858 compute=0 memory=153323 protocol=1058435 network=1898100 stolen=0 Reads=1102 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=16 RemoteReads=397 RemoteWrites=152 Invalidations=9 LockAcquires=2 Evictions=6 CacheMisses=17 read=3b7093f9f9815720 events=252:1a84057cb380a42b",
		"clock=4140953 compute=0 memory=153730 protocol=2096423 network=1890800 stolen=0 Reads=1104 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=16 RemoteReads=396 RemoteWrites=136 Invalidations=9 LockAcquires=2 Evictions=6 CacheMisses=17 read=8d89ecccff004d4f events=254:cde377d8e668f17b",
	},
	"swdsm-scope": {
		"clock=35145450 compute=0 memory=498443 protocol=12813295 network=20576000 stolen=1257712 Reads=1102 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=34 TwinsCreated=24 DiffsCreated=24 DiffBytes=1376 Invalidations=28 LockAcquires=2 CacheMisses=21 ProtocolMsgs=58 read=3b7093f9f9815720 events=173:844506367fbcbcee",
		"clock=46507745 compute=0 memory=515610 protocol=23081735 network=21758800 stolen=1151600 Reads=1104 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=36 TwinsCreated=24 DiffsCreated=24 DiffBytes=1232 Invalidations=30 LockAcquires=2 CacheMisses=23 ProtocolMsgs=66 read=8d89ecccff004d4f events=174:3e8a1c924f3d02fd",
	},
	"swdsm-eager-rc": {
		"clock=35486970 compute=0 memory=498443 protocol=12907135 network=20793680 stolen=1287712 Reads=1102 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=34 TwinsCreated=24 DiffsCreated=24 DiffBytes=1376 Invalidations=28 LockAcquires=2 CacheMisses=21 ProtocolMsgs=60 read=3b7093f9f9815720 events=173:8cbbbc058df28aa8",
		"clock=46943105 compute=0 memory=515610 protocol=23269415 network=21976480 stolen=1181600 Reads=1104 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=36 TwinsCreated=24 DiffsCreated=24 DiffBytes=1232 Invalidations=30 LockAcquires=2 CacheMisses=23 ProtocolMsgs=68 read=8d89ecccff004d4f events=174:57841190a2ac1c97",
	},
	"swdsm-cache2": {
		"clock=41473610 compute=0 memory=564043 protocol=14983695 network=24482560 stolen=1443312 Reads=1102 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=42 TwinsCreated=24 DiffsCreated=24 DiffBytes=1376 Invalidations=8 LockAcquires=2 Evictions=32 CacheMisses=21 ProtocolMsgs=66 read=3b7093f9f9815720 events=189:f947634bb949e704",
		"clock=54819425 compute=0 memory=581210 protocol=27236935 network=25664080 stolen=1337200 Reads=1104 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=44 TwinsCreated=24 DiffsCreated=24 DiffBytes=1232 Invalidations=8 LockAcquires=2 Evictions=34 CacheMisses=23 ProtocolMsgs=74 read=8d89ecccff004d4f events=190:6dec55c4c4547f17",
	},
	"ivy": {
		"clock=30278218 compute=0 memory=309843 protocol=11832935 network=17101040 stolen=1034400 Reads=1102 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=35 LockAcquires=2 CacheMisses=21 HomeMigrations=22 ProtocolMsgs=35 read=3b7093f9f9815720 events=81:18772f77b0fed841",
		"clock=40301433 compute=0 memory=368010 protocol=18599343 network=20522080 stolen=812000 Reads=1104 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=42 LockAcquires=2 CacheMisses=23 HomeMigrations=29 ProtocolMsgs=46 read=8d89ecccff004d4f events=81:aa5ba0b13568c8f3",
	},
	"multi-scope": {
		"clock=20042074 compute=0 memory=334263 protocol=7364499 network=11697880 stolen=645432 Reads=1102 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=26 RemoteReads=184 RemoteWrites=58 TwinsCreated=12 DiffsCreated=12 DiffBytes=840 Invalidations=23 LockAcquires=2 CacheMisses=20 ProtocolMsgs=30 read=3b7093f9f9815720 events=212:45c1b7ea1e699f68",
		"clock=26632149 compute=0 memory=351430 protocol=13017775 network=12663640 stolen=599304 Reads=1104 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=28 RemoteReads=184 RemoteWrites=58 TwinsCreated=12 DiffsCreated=12 DiffBytes=704 Invalidations=25 LockAcquires=2 CacheMisses=22 ProtocolMsgs=32 read=8d89ecccff004d4f events=212:cc1fc32eaf6a3ee2",
	},
	"multi-ivy": {
		"clock=16301778 compute=0 memory=227663 protocol=6394715 network=9215400 stolen=464000 Reads=1102 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=25 RemoteReads=184 RemoteWrites=58 Invalidations=7 LockAcquires=2 CacheMisses=20 HomeMigrations=10 ProtocolMsgs=17 read=3b7093f9f9815720 events=163:5851d3fe49e06f77",
		"clock=21281053 compute=0 memory=253030 protocol=9952063 network=10681560 stolen=394400 Reads=1104 Writes=300 BlockReads=30 BlockWrites=16 PageFaults=28 RemoteReads=184 RemoteWrites=58 Invalidations=7 LockAcquires=2 CacheMisses=22 HomeMigrations=13 ProtocolMsgs=20 read=8d89ecccff004d4f events=163:d2695dd585ed3fce",
	},
}
