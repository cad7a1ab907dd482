package server

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Serve is the process loop pgserve and pgproxy share: serve h on addr
// until SIGINT/SIGTERM, then shut down gracefully. It returns the listen
// error if the server could not run, nil after a clean shutdown; attrs
// extend the "serving" log line.
//
// Every request context derives from the signal context: SIGTERM
// propagates into in-flight queries — which cancel at candidate
// granularity — and through a coordinator into every shard sub-request,
// so shutdown waits for the current candidates, not for a full database
// scan. A non-empty pprofAddr serves net/http/pprof on its own listener.
func Serve(logger *slog.Logger, addr, pprofAddr string, h http.Handler, attrs ...any) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if pprofAddr != "" {
		// pprof gets its own mux on its own listener so profiling is never
		// reachable through the public API address.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// The pprof listener is process-lifetime by design; it dies with the process.
		go func() {
			logger.Info("pprof listening", "addr", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, pm); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:        addr,
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return ctx },
		// Handlers never hold database locks across response writes
		// (/query/stream evaluates on a pinned view and delivers through a
		// queue, so a stalled reader never pins anything), so a slow client
		// costs a connection, not the service; these bound that cost
		// (header slow-loris, dead keep-alives, stuck writes).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	// Lives exactly until ListenAndServe returns; the buffered send can never block.
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("serving", append([]any{"addr", addr}, attrs...)...)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Info("shutting down (in-flight requests cancelled)")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("shutdown", "err", err)
		}
		return nil
	}
}
