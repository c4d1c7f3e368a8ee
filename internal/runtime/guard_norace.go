//go:build !race

package runtime

// OriginGuardForced reports whether every segment checks its puts'
// origin buffers whatever SetOriginGuard says: true in race builds,
// so race-enabled test runs check every put.
const OriginGuardForced = false
