c     bench/gen.Generate(1, gen.Mid()).Source: the program shape of the
c     benchmark's plan_run workload (six inline blocks, six units).
      program main
      integer i, j, k, ip
      real a(400), b(400), w(20,20), s, t, zsalt
      do i = 1, 400
         a(i) = 0.001*real(mod(i, 37)) + 0.5
         b(i) = 0.002*real(mod(i, 23)) + 0.25
      enddo
      do j = 1, 20
         do i = 1, 20
            w(i,j) = 0.01*real(i + j)
         enddo
      enddo
      s = 0.0
      do i = 1, 400
         b(i) = a(i)*0.375 + 0.5
      enddo
      do i = 2, 400
         t = a(i-1)*0.375 + b(i)*0.25
         a(i) = t + 0.001
      enddo
      do i = 1, 400
         s = s + a(i)*b(i)*0.125
      enddo
      b(2) = b(2)*0.375 + s*0.000001
      do k = 1, 20
         do i = 1, 20
            w(i,k) = w(i,k)*0.5 + b(i + k)*0.01
         enddo
      enddo
      do j = 2, 20
         do i = 1, 20
            w(i,j) = w(i,j-1)*0.25 + a(i)*0.375
         enddo
      enddo
      do i = 1, 392
         a(i) = a(i + 3)*0.5 + b(i)*0.375
      enddo
      do ip = 1, 12
      call u1(a, b, w, 1)
      call u2(b, a, w, 2)
      call u3(a, b, w, 3)
      call u4(b, a, w, 4)
      call u5(a, b, w, 5)
      call u6(b, a, w, 6)
      enddo
      t = 0.0
      do i = 1, 400
         t = t + a(i) + b(i)
      enddo
      zsalt = 0.0
      print *, t, s, a(1), b(400), w(20,20)
      end
      subroutine u1(x, y, w, off)
      integer off, i, j, k
      real x(400), y(400), w(20,20), loc(64), s, t
      do i = 1, 64
         loc(i) = 0.125*real(mod(i + 1, 11))
      enddo
      s = 0.0
      do i = 1, 400
         s = s + x(i)*y(i)*0.375
      enddo
      y(2) = y(2)*0.5 + s*0.000001
      x(1) = x(1)*0.5 + loc(2)*0.001
      end
      subroutine u2(x, y, w, off)
      integer off, i, j, k
      real x(400), y(400), w(20,20), loc(64), s, t
      do i = 1, 64
         loc(i) = 0.5*real(mod(i + 2, 11))
      enddo
      s = 0.0
      do k = 1, 20
         call h2(y, w, k)
      enddo
      x(1) = x(1)*0.5 + loc(3)*0.001
      end
      subroutine h2(y, w, k)
      integer k, i
      real y(400), w(20,20)
      do i = 1, 20
         w(i,k) = w(i,k)*0.375 + y(i + k)*0.01
      enddo
      end
      subroutine u3(x, y, w, off)
      integer off, i, j, k
      real x(400), y(400), w(20,20), loc(64), s, t
      do i = 1, 64
         loc(i) = 0.5*real(mod(i + 3, 11))
      enddo
      s = 0.0
      do i = 1, 392
         x(i) = x(i + off)*0.25 + y(i)*0.125
      enddo
      x(1) = x(1)*0.5 + loc(4)*0.001
      end
      subroutine u4(x, y, w, off)
      integer off, i, j, k
      real x(400), y(400), w(20,20), loc(64), s, t
      do i = 1, 64
         loc(i) = 0.5*real(mod(i + 4, 11))
      enddo
      s = 0.0
      do i = 1, 400
         y(i) = x(i)*0.5 + 0.25
      enddo
      x(1) = x(1)*0.5 + loc(5)*0.001
      end
      subroutine u5(x, y, w, off)
      integer off, i, j, k
      real x(400), y(400), w(20,20), loc(64), s, t
      do i = 1, 64
         loc(i) = 0.125*real(mod(i + 5, 11))
      enddo
      s = 0.0
      do i = 2, 400
         t = x(i-1)*0.25 + y(i)*0.5
         x(i) = t + 0.001
      enddo
      x(1) = x(1)*0.5 + loc(6)*0.001
      end
      subroutine u6(x, y, w, off)
      integer off, i, j, k
      real x(400), y(400), w(20,20), loc(64), s, t
      do i = 1, 64
         loc(i) = 0.25*real(mod(i + 6, 11))
      enddo
      s = 0.0
      do j = 2, 20
         do i = 1, 20
            w(i,j) = w(i,j-1)*0.375 + x(i)*0.25
         enddo
      enddo
      x(1) = x(1)*0.5 + loc(7)*0.001
      end
